"""Workload inputs and the operations one round of each workload runs.

Every workload repeats whole rounds of the same operations.  A round mixes
the three things a user does with emprank: rank one network (in process or
through ``emprank rank``), run a selection study, and validate a pattern by
simulation.  The workload named after one of them runs it at full size; the
other two ride along at a small fixed size, so every end-to-end metric is
measured on every workload.

Inputs drawn from ``--seed`` must not fail.  The two known faults are kept
on fixed inputs that do not depend on the seed (``FAULT_CHAINS``, the
disagreeing CLI network and the second-order scenario), so the failed share
of a round is the same in every run.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import emprank as ep
from emprank import montecarlo as mc

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
NETWORKS = os.path.join(HERE, "networks")

RANK_N = 10
EQUAL_SIGMA2 = 1.0
EQUAL_LAMBDA = 0.01
RANDOM_RANGE = (0.001, 50.0)

# rank: seeded chains per variance law, passes over them in one round, and
# the margin over the program's rcond cut that a seeded chain's every pattern
# must clear.  Two passes over 12 chains rather than one over 24 keep set-up
# short (the oracle screens every seeded chain); the median over 12 chains
# already moves by only about 2% between seeds.
RANK_CHAINS_PER_LAW = 6
RANK_PASSES = 2
CLEAN_MARGIN = 2.0
# n=10 first-order chains drawn from run r of master seed 20260815 on which
# the raw-rcond test marks patterns non-informative although their
# Jacobi-scaled rcond is above the cut (all 192 on the first, 96 of 224 on
# the second).
FAULT_SEED = 20260815
FAULT_CHAINS = (("equal", 5), ("random", 4))

# select: runs per scenario, worker processes, and the fixed second-order
# scenario whose rejected runs are the select-side instance of fault (1).
SELECT_RUNS = 20
SELECT_WORKERS = 2
SECOND_ORDER_SEED = 7

# validate: samples per record and replications per case in one round.
PEM_SAMPLES = 1000
PEM_REPLICATIONS = 45

# The small fixed-size share of the other operations in a round (see build):
# rank calls on one fixed clean n=10 chain (also from FAULT_SEED), calls of a
# first-order n=4 study with COMPANION_RUNS runs, and calls of the 3-node
# validation case with COMPANION_REPLICATIONS replications.
COMPANION_CHAIN = ("equal", 0)
COMPANION_RUNS = 34
COMPANION_REPLICATIONS = 30

SAMPLERS = {
    mc.FIRST_ORDER: mc.sample_first_order,
    mc.SECOND_ORDER: mc.sample_second_order,
    mc.FIR_BUTTERWORTH: mc.sample_fir_butterworth,
}


def derived_seed(*parts):
    """One 32-bit integer seed from a tuple of integers."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def draw_run(cfg, run_index):
    """Modules and variances of run ``run_index`` of a scenario.

    This follows the sampling law the program documents: run r of master
    seed s draws from the stream seeded by (s, r), first the modules (one
    module repeated when ``identical``), then the perturbation, then the
    variances (all excitation variances, then all noise variances).
    """
    rng = np.random.default_rng([cfg.master_seed, run_index])
    sampler = SAMPLERS[cfg.family]
    if cfg.identical:
        modules = [sampler(rng)] * (cfg.n - 1)
    else:
        modules = [sampler(rng) for _ in range(cfg.n - 1)]
    if cfg.perturbation is not None:
        p = cfg.perturbation
        theta = list(modules[p.module - 1].theta)
        theta[p.param] *= p.factor
        modules[p.module - 1] = ep.ParamModule(modules[p.module - 1].family, tuple(theta))
    if cfg.variance_mode == "equal":
        profile = ep.VarianceProfile(EQUAL_SIGMA2, EQUAL_LAMBDA)
    else:
        nodes = range(1, cfg.n + 1)
        sigma2 = {i: rng.uniform(*RANDOM_RANGE) for i in nodes}
        lam = {j: rng.uniform(*RANDOM_RANGE) for j in nodes}
        profile = ep.VarianceProfile(sigma2, lam)
    return modules, profile


def chain_config(law, master_seed):
    return ep.ScenarioConfig(
        n=RANK_N, family=mc.FIRST_ORDER, runs=1, variance_mode=law, master_seed=master_seed
    )


def reference_of(modules):
    return oracle.Reference([(m.family, m.theta) for m in modules])


def patterns_of(n, profile):
    return [profile.emp_for(p) for p in ep.enumerate_minimal(n)]


def clean_chains(seed, law, count):
    """The first ``count`` seeded n=10 chains under one variance law on which
    every pattern's raw rcond (from the oracle) clears the program's cut by
    CLEAN_MARGIN, so no pattern can be marked non-informative.  Each chain
    comes with the oracle summaries of its patterns, which the checks reuse."""
    cfg = chain_config(law, derived_seed(seed, 1 if law == "equal" else 2))
    out = []
    r = 0
    while len(out) < count:
        modules, profile = draw_run(cfg, r)
        ref = oracle.summaries(reference_of(modules).information(patterns_of(RANK_N, profile)))
        if all(s["rcond"] > CLEAN_MARGIN * oracle.RCOND_THRESHOLD for s in ref):
            out.append((f"{law}-{r}", modules, profile, ref))
        r += 1
    return out


def fixed_chain(law, run_index):
    modules, profile = draw_run(chain_config(law, FAULT_SEED), run_index)
    return (f"fixed-{law}-{run_index}", modules, profile, None)


# ---------------------------------------------------------------- operations


@dataclass
class RankOp:
    """One ``rank_emps`` call on a fresh CascadeNetwork (cold Gram memo)."""

    key: str
    modules: list
    profile: object
    reference: list = field(default=None, repr=False)  # oracle summaries, when the build made them
    kind: str = "rank"

    def run(self, round_index, workers):
        net = ep.CascadeNetwork(self.modules)
        t0 = time.perf_counter()
        ranking = ep.rank_emps(net, self.profile)
        dt = time.perf_counter() - t0
        result = {
            "order": [e.canonical_index for e in ranking.entries],
            "trace": {e.canonical_index: e.info.criteria["trace"] for e in ranking.entries},
            "dead": sorted(idx for _, idx, _ in ranking.non_informative),
        }
        return dt, result


@dataclass
class CliOp:
    """One ``emprank rank --format json`` subprocess on a network file."""

    key: str
    root: str
    kind: str = "cli"

    @property
    def path(self):
        return os.path.join(NETWORKS, f"{self.key}.json")

    def run(self, round_index, workers):
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        cmd = [sys.executable, "-m", "emprank.cli", "rank", "--network", self.path, "--format", "json"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=self.root, timeout=120)
        dt = time.perf_counter() - t0
        return dt, {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


@dataclass
class SelectOp:
    """One ``run_scenario`` call."""

    key: str
    cfg: object
    kind: str = "select"

    def run(self, round_index, workers):
        t0 = time.perf_counter()
        report = ep.run_scenario(self.cfg, workers=workers)
        dt = time.perf_counter() - t0
        return dt, report_summary(report)


@dataclass
class ValidateOp:
    """One ``empirical_covariance`` call; its records are seeded per round."""

    key: str
    modules: list
    emp: object
    replications: int
    seed: int
    kind: str = "validate"

    def run(self, round_index, workers):
        net = ep.CascadeNetwork(self.modules)
        t0 = time.perf_counter()
        check = ep.empirical_covariance(
            net, self.emp, PEM_SAMPLES, self.replications, seed=derived_seed(self.seed, round_index)
        )
        dt = time.perf_counter() - t0
        return dt, {
            "theoretical": check.theoretical_trace,
            "empirical": check.empirical_trace,
            "failed": check.n_failed,
            "reliable": check.reliable,
        }


def report_summary(report):
    return {
        "counts": report.counts.tolist(),
        "informative": int(report.n_informative_runs),
        "rejected": int(report.n_rejected_runs),
        "dead": int(report.n_noninformative_emps),
        "runner_up": report.runner_up_ratios.tolist(),
        "worst": report.worst_ratios.tolist(),
    }


# ------------------------------------------------------------------- inputs


def pem_cases():
    """The three validation cases: (key, modules, pattern)."""
    pm = ep.ParamModule
    return [
        ("fir2", [pm("fir", (0.8, -0.25, 0.1))], ep.Emp.uniform({1}, {2}, 1.0, 0.1)),
        (
            "first3",
            [pm("first_order", (-0.4, 1.2)), pm("first_order", (0.3, 0.7))],
            ep.Emp.uniform({1}, {2, 3}, 1.0, 0.1),
        ),
        (
            "mixed4",
            [
                pm("first_order", (0.5, 1.0)),
                pm("second_order", (1.0, 0.4, -0.5, 0.2)),
                pm("fir", (0.7, -0.3, 0.1)),
            ],
            ep.Emp.uniform({1, 2}, {3, 4}, 1.0, 0.1),
        ),
    ]


def select_scenarios(seed):
    sc = ep.ScenarioConfig
    fo, so, fb = mc.FIRST_ORDER, mc.SECOND_ORDER, mc.FIR_BUTTERWORTH
    return [
        ("first4-equal", sc(n=4, family=fo, runs=SELECT_RUNS, master_seed=derived_seed(seed, 11))),
        (
            "first6-random",
            sc(n=6, family=fo, runs=SELECT_RUNS, variance_mode="random", master_seed=derived_seed(seed, 12)),
        ),
        ("second4-equal", sc(n=4, family=so, runs=SELECT_RUNS, master_seed=SECOND_ORDER_SEED)),
        (
            "fir4-identical",
            sc(n=4, family=fb, runs=SELECT_RUNS, identical=True, master_seed=derived_seed(seed, 13)),
        ),
        (
            "fir4-module1x10",
            sc(
                n=4,
                family=fb,
                runs=SELECT_RUNS,
                perturbation=ep.Perturbation(module=1, param=0, factor=10.0),
                master_seed=derived_seed(seed, 14),
            ),
        ),
    ]


def companion_select(seed):
    cfg = ep.ScenarioConfig(n=4, family=mc.FIRST_ORDER, runs=COMPANION_RUNS, master_seed=derived_seed(seed, 21))
    return SelectOp("companion-first4-equal", cfg)


def companion_validate(seed):
    key, modules, emp = pem_cases()[1]
    return ValidateOp(f"companion-{key}", modules, emp, COMPANION_REPLICATIONS, derived_seed(seed, 22))


def companion_rank():
    return RankOp(*fixed_chain(*COMPANION_CHAIN))


def build(workload, seed, root):
    """The operations of one round of ``workload``, in the order they run.

    The small share of the other operations is spread through the round,
    so that every metric samples the whole run."""
    if workload == "rank":
        chains = clean_chains(seed, "equal", RANK_CHAINS_PER_LAW)
        chains += clean_chains(seed, "random", RANK_CHAINS_PER_LAW)
        main = [RankOp(*chain) for chain in chains] * RANK_PASSES
        fault = [RankOp(*fixed_chain(law, r)) for law, r in FAULT_CHAINS]
        sel, val = companion_select(seed), companion_validate(seed)
        agree, disagree = CliOp("agree", root), CliOp("disagree", root)
        extra = [fault[0], agree, val, sel, val, disagree, fault[1], val, sel, val, sel]
    elif workload == "select":
        main = [SelectOp(key, cfg) for key, cfg in select_scenarios(seed)]
        extra = mix(companion_rank(), companion_validate(seed), CliOp("agree", root))
    elif workload == "validate":
        main = [
            ValidateOp(key, modules, emp, PEM_REPLICATIONS, derived_seed(seed, 30 + k))
            for k, (key, modules, emp) in enumerate(pem_cases())
        ]
        extra = mix(companion_rank(), companion_select(seed), CliOp("agree", root))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return interleave(main, extra)


def mix(rank, other, cli):
    """The companion share of a select or validate round: four rank calls,
    three calls of the other operation and one CLI call, alternating."""
    return [rank, other, rank, cli, rank, other, rank, other]


def interleave(main, extra):
    """``main`` with the ``extra`` operations placed at even intervals."""
    out = list(main)
    step = (len(main) + len(extra)) / len(extra)
    for k, op in enumerate(extra):
        out.insert(int(k * step + step / 2), op)
    return out


@dataclass
class Record:
    op: object
    round_index: int
    seconds: float
    result: dict = field(repr=False)
