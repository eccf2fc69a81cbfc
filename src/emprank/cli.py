"""Command-line front end: enumerate, rank, montecarlo, validate.

Network files are JSON:

    {"n": 4,
     "modules": [{"family": "first_order", "theta": [0.5, 1.0]}, ...],
     "defaults": {"sigma2": 1.0, "lambda": 0.01}}

Pattern literals look like "B=1,2;C=3,4" (no node twice in a set) with
optional per-node variance lists "sigma2=..." / "lambda=..." aligned with the
ascending node order of their set (a single value broadcasts).

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from pathlib import Path

from . import __version__
from .cascade import CascadeNetwork
from .emp import MAX_NODES, Emp, VarianceProfile, direct_modules, enumerate_minimal, mirror_pattern, pattern_label
from .fisher import CRITERIA, NonInformativeError, information_matrix
from .lti import ParamModule, UnstableFilterError
from .montecarlo import ScenarioConfig, run_scenario
from .pem import MIN_REPLICATIONS, TRANSIENT, empirical_covariance
from .ranking import covariance_block_identities, rank_emps, verify_mirror

CONFIG_ERROR = 2
NUMERICAL_ERROR = 3


class ConfigError(Exception):
    pass


def _numbers(values):
    """values as a tuple; JSON true/false, which Python reads as 1 and 0, raise."""
    values = tuple(values)
    if any(isinstance(v, bool) for v in values):
        raise ValueError(f"expected numbers, got {list(values)!r}")
    return values


def _read_json(path, what):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8; nesting too deep for the parser
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_network(path):
    spec = _read_json(path, "network file")
    try:
        modules = [
            ParamModule(m["family"], _numbers(m["theta"])) for m in spec["modules"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad module list in {path}: {exc}") from exc
    if not modules:
        raise ConfigError(f"network file {path} lists no modules; a cascade needs at least one")
    if len(modules) + 1 > MAX_NODES:
        raise ConfigError(f"network file {path} has {len(modules) + 1} nodes; at most {MAX_NODES} are supported")
    if "n" in spec and spec["n"] != len(modules) + 1:
        raise ConfigError(
            f"network file says n={spec['n']} but lists {len(modules)} modules"
        )
    defaults = spec.get("defaults", {})
    try:
        sigma2, lam = map(float, _numbers(defaults.get(key, 1.0) for key in ("sigma2", "lambda")))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad defaults in {path}: {exc}") from exc
    if not (0 < sigma2 < math.inf and 0 < lam < math.inf):
        raise ConfigError(f"defaults in {path}: sigma2 and lambda must be positive and finite, got {sigma2}, {lam}")
    return modules, VarianceProfile(sigma2, lam)


def parse_emp_literal(text, n, profile):
    """Build an Emp from "B=...;C=..." with optional variance overrides."""
    parts = {}
    for item in text.split(";"):
        if "=" not in item:
            raise ConfigError(f"bad pattern component {item!r}")
        key, value = item.split("=", 1)
        parts[key.strip()] = value.strip()
    missing = {"B", "C"} - set(parts)
    if missing:
        raise ConfigError(f"pattern literal must define B and C, missing {sorted(missing)}")

    def nodes(text, what):
        try:
            out = [int(x) for x in text.split(",") if x]
        except ValueError as exc:
            raise ConfigError(f"bad node list for {what}: {text!r}") from exc
        if not out or min(out) < 1 or max(out) > n:
            raise ConfigError(f"{what} nodes must lie in 1..{n}: {text!r}")
        repeated = sorted({x for x in out if out.count(x) > 1})
        if repeated:
            raise ConfigError(f"{what} lists node {repeated[0]} twice: {text!r}")
        return out

    def variances(key, node_list, default):
        raw = parts.get(key)
        if raw is None:
            return {node: default(node) for node in node_list}
        try:
            values = [float(x) for x in raw.split(",") if x]
        except ValueError as exc:
            raise ConfigError(f"bad variance list for {key}: {raw!r}") from exc
        if len(values) == 1:
            values = values * len(node_list)
        if len(values) != len(node_list):
            raise ConfigError(
                f"{key} needs 1 or {len(node_list)} values, got {len(values)}"
            )
        return dict(zip(sorted(node_list), values))

    b = nodes(parts["B"], "B")
    c = nodes(parts["C"], "C")
    sigma2 = variances("sigma2", b, profile.sigma2_at)
    lam = variances("lambda", c, profile.lam_at)
    silent = [j for j in sorted(c) if lam[j] <= 0 and j > min(b)]
    if silent:
        raise ConfigError(
            f"lambda at measured node {silent[0]} must be positive: it follows excited node {min(b)}"
        )
    try:
        return Emp(frozenset(b), frozenset(c), sigma2, lam)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _emit_rows(header, rows, fmt, stream):
    if fmt == "json":
        json.dump([dict(zip(header, row)) for row in rows], stream, indent=2)
        stream.write("\n")
    elif fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        widths = [
            max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
            for i, h in enumerate(header)
        ]
        stream.write("  ".join(str(h).ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
        for row in rows:
            stream.write("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip() + "\n")


def _write_outputs(outdir, stem, header, rows, payload, subcommand, config, seed):
    """Write <stem>.csv (a "# manifest:" line, then the rows) and <stem>.json
    (the manifest plus ``payload``) into outdir; return both paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / f"{stem}.csv"
    json_path = outdir / f"{stem}.json"
    with open(csv_path, "w", newline="") as fh:
        fh.write(f"# manifest: {json_path.name}\n")
        _emit_rows(header, rows, "csv", fh)
    manifest = {
        "tool": "emprank",
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "master_seed": seed,
        "outputs": [str(csv_path), str(json_path)],
    }
    json_path.write_text(json.dumps({"manifest": manifest, **payload}, indent=2, sort_keys=True) + "\n")
    return csv_path, json_path


def cmd_enumerate(args):
    rows = [
        (
            idx,
            pattern_label(pattern),
            ",".join(str(k) for k in sorted(direct_modules(pattern))),
            pattern_label(mirror_pattern(pattern, args.n)),
        )
        for idx, pattern in enumerate(enumerate_minimal(args.n))
    ]
    _emit_rows(["index", "pattern", "direct_modules", "mirror"], rows, args.format, sys.stdout)
    return 0


def cmd_rank(args):
    modules, profile = load_network(args.network)
    net = CascadeNetwork(modules)
    if args.emp is not None:
        emp = parse_emp_literal(args.emp, net.n, profile)
        res = information_matrix(net, emp)
        if not res.informative:
            raise NonInformativeError(f"pattern {emp.label} is non-informative (rcond={res.rcond:.3g})")
        payload = {
            "pattern": emp.label,
            "criterion": {k: res.criteria[k] for k in CRITERIA},
            "block_traces": res.traces,
            "direct_modules": sorted(direct_modules(emp.pattern)),
            "rcond": res.rcond,
        }
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    ranking = rank_emps(net, profile, args.criterion)
    other = "logdet" if args.criterion == "trace" else "trace"
    rows = [
        (
            pattern_label(e.pattern),
            repr(e.value),
            repr(e.info.criteria[other]),
            ",".join(str(k) for k in sorted(direct_modules(e.pattern))),
        )
        for e in ranking.entries
    ]
    header = ["pattern", args.criterion, other, "direct_modules"]
    _emit_rows(header, rows, args.format, sys.stdout)
    by_other = min(ranking.entries, key=lambda e: (e.info.criteria[other], e.canonical_index))
    if by_other is not ranking.entries[0]:
        print(
            f"note: {other} prefers {pattern_label(by_other.pattern)} over "
            f"{pattern_label(ranking.entries[0].pattern)}"
        )
    for pattern, idx, rcond in ranking.non_informative:
        print(f"note: {pattern_label(pattern)} non-informative (rcond={rcond:.3g})")
    if args.out:
        config = {"network": str(args.network), "criterion": args.criterion}
        payload = {"ranking": [dict(zip(header, row)) for row in rows]}
        _write_outputs(args.out, "ranking", header, rows, payload, "rank", config, None)
    if args.check_theorems:
        report = verify_mirror(net, profile)
        tag = "met" if report.hypotheses_met else "NOT met"
        print(f"mirror-symmetry hypotheses (identical modules, uniform variances): {tag}")
        ok = report.max_trace_deviation < 1e-9 and report.max_m_deviation < 1e-9
        print(
            f"mirror check: max trace deviation {report.max_trace_deviation:.3e}, "
            f"max block-reversal deviation {report.max_m_deviation:.3e} -> "
            + ("PASS" if ok else ("FAIL" if report.hypotheses_met else "n/a"))
        )
        if net.n == 4 and report.hypotheses_met:
            ids = covariance_block_identities(net, profile)
            worst = max(
                max(v["m_deviation"], v["block_deviation"]) for v in ids.values()
            )
            print(
                f"4-node closed-form blocks: max deviation {worst:.3e} -> "
                + ("PASS" if worst < 1e-8 else "FAIL")
            )
    return 0


def cmd_montecarlo(args):
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    raw = _read_json(args.config, "scenario config")
    if not isinstance(raw, dict):
        raise ConfigError(f"scenario config must be a JSON object, got {type(raw).__name__}")
    if args.runs is not None:
        raw["runs"] = args.runs
    if args.seed is not None:
        raw["master_seed"] = args.seed
    try:
        cfg = ScenarioConfig.from_dict(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario config: {exc}") from exc
    report = run_scenario(cfg, workers=args.threads)
    rows = [
        (pattern_label(pattern), int(count), repr(float(pct)))
        for pattern, count, pct in zip(report.patterns, report.counts, report.percentages)
    ]
    header = ["pattern", "count", "percent"]
    payload = {"report": report.to_dict()}
    csv_path, json_path = _write_outputs(
        args.out, "scenario_report", header, rows, payload, "montecarlo", cfg.to_dict(), cfg.master_seed
    )
    if report.best_index is None:
        print(f"0 informative runs; all {report.n_rejected_runs} runs rejected")
    else:
        best = report.patterns[report.best_index]
        print(
            f"{report.n_informative_runs} informative runs; best {pattern_label(best)} "
            f"({report.percentages[report.best_index]:.2f}%)"
        )
    if report.median_runner_up is not None:
        print(f"median ratios: runner-up {report.median_runner_up:.3f}, worst {report.median_worst:.3f}")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_validate(args):
    modules, profile = load_network(args.network)
    net = CascadeNetwork(modules)
    emp = parse_emp_literal(args.emp, net.n, profile)
    check = empirical_covariance(net, emp, args.samples, args.replications, seed=args.seed)
    payload = {
        "pattern": emp.label,
        "samples": args.samples,
        "replications": args.replications,
        "seed": args.seed,
        "theoretical_trace": check.theoretical_trace,
        "empirical_trace": check.empirical_trace,
        "rel_deviation": check.rel_deviation,
        "failed_fits": check.n_failed,
        "reliable": check.reliable,
    }
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if not check.reliable:
        print("numerical failure: too many failed fits", file=sys.stderr)
        return NUMERICAL_ERROR
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="emprank",
        description="Enumerate and rank excitation/measurement patterns of cascade networks",
    )
    parser.add_argument("--version", action="version", version=f"emprank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list the minimal patterns of an n-node cascade")
    p.add_argument("-n", type=int, required=True, help="number of nodes (>= 2)")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("rank", help="rank the minimal patterns of a network file")
    p.add_argument("--network", required=True, help="network JSON file")
    p.add_argument("--emp", help="evaluate a single pattern literal instead of ranking")
    p.add_argument("--criterion", choices=CRITERIA, default="trace")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--out", help="directory for ranking.csv / ranking.json")
    p.add_argument(
        "--check-theorems",
        action="store_true",
        help="also verify mirror symmetry and, for 4-node networks, closed-form blocks",
    )
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("montecarlo", help="run a selection-frequency scenario config")
    p.add_argument("--config", required=True, help="scenario JSON file")
    p.add_argument("--runs", type=int, help="override the configured number of runs")
    p.add_argument("--seed", type=int, help="override the configured master seed")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--threads", type=int, default=1, help="worker processes")
    p.set_defaults(handler=cmd_montecarlo)

    p = sub.add_parser("validate", help="compare empirical and theoretical covariance")
    p.add_argument("--network", required=True, help="network JSON file")
    p.add_argument("--emp", required=True, help="pattern literal, e.g. B=1;C=2,3")
    p.add_argument("-N", "--samples", type=int, default=2000)
    p.add_argument("--replications", type=int, default=200)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.set_defaults(handler=cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n", None) is not None and not 2 <= args.n <= MAX_NODES:
        parser.error(f"-n must be at least 2 and at most {MAX_NODES}")
    if getattr(args, "replications", None) is not None and args.replications < MIN_REPLICATIONS:
        parser.error(f"--replications must be at least {MIN_REPLICATIONS}")
    if getattr(args, "threads", None) is not None and args.threads < 1:
        parser.error("--threads must be at least 1")
    if getattr(args, "samples", None) is not None and args.samples <= TRANSIENT:
        parser.error(f"--samples must exceed the transient cut of {TRANSIENT}")
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except (UnstableFilterError, NonInformativeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
