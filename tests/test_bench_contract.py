"""The benchmark's traced run can still find and read every function it wraps.

``bench/tracing.py`` wraps emprank functions by name and lists the names it
cannot find as absent layers.  A traced run with an absent layer leaves
declared per-layer metrics out of its report, so renaming or deleting a
wrapped name breaks the benchmark even though every check passes.  These
tests fail first: when a wrapped name is missing, when a wrapped function's
return value no longer carries what its span counter reads, when a name the
workloads and checks read off emprank or one of its modules is gone, when an
attribute they read off a returned emprank object is, and when
``bench/oracle.py``, the tests' reference, takes code from emprank or tests.
"""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import emprank
from emprank import (
    CascadeNetwork,
    Emp,
    ParamModule,
    ScenarioConfig,
    information_matrix,
    pem_fit,
    realize,
    run_scenario,
    simulate,
)
from emprank.cli import main
from emprank.lti import impulse_response
from conftest import BENCH, load_bench


@pytest.fixture(scope="module")
def tracing():
    # the tracer wraps a name in every emprank module already loaded
    for info in pkgutil.iter_modules(emprank.__path__):
        importlib.import_module(f"emprank.{info.name}")
    return load_bench("tracing")


def test_every_wrapped_name_exists(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert tracer.present == {name for _, _, name, _ in tracing.TARGETS}
    finally:
        tracer.uninstall()


def test_counters_read_real_return_values(tracing):
    net = CascadeNetwork(
        [ParamModule("first_order", (-0.4, 1.2)), ParamModule("first_order", (0.3, 0.7))]
    )
    emp = Emp.uniform({1}, {2, 3}, 1.0, 0.1)
    returns = {
        "impulse_response": impulse_response(realize(net.modules[0])),
        "information_matrix": information_matrix(net, emp),
        "run_scenario": run_scenario(ScenarioConfig(n=3, family="first_order", runs=2)),
        "pem_fit": pem_fit(simulate(net, emp, 300, seed=1), net.modules),
    }
    read = set()
    for _, attr, name, counters in tracing.TARGETS:
        if counters is None:
            continue
        counts = counters(returns[attr])
        assert counts, name
        for key, value in counts.items():
            assert isinstance(value, (int, np.integer)) and value >= 0, (name, key, value)
        read.add(attr)
    assert read == set(returns)


def _emprank_reads(tree):
    """(module, attribute) of every ``alias.attribute`` read in the tree, where
    the alias names emprank or one of its modules (``import emprank as ep``,
    ``from emprank import montecarlo as mc``)."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "emprank":
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and node.module == "emprank":
            for a in node.names:
                aliases[a.asname or a.name] = f"emprank.{a.name}"
    return {
        (aliases[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases
    }


def test_every_name_bench_reads_exists():
    reads = set()
    for path in sorted(BENCH.glob("*.py")):
        reads |= _emprank_reads(ast.parse(path.read_text(), str(path)))
    assert {module for module, _ in reads} >= {"emprank", "emprank.montecarlo"}
    missing = sorted(
        f"{module}.{attr}" for module, attr in reads if not hasattr(importlib.import_module(module), attr)
    )
    assert not missing


@pytest.fixture(scope="module")
def bench():
    """``workloads`` and ``checks`` imported as ``bench/run.py`` imports
    them, with ``bench/`` at the front of ``sys.path``."""
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("workloads"), importlib.import_module("checks")
    finally:
        sys.path.remove(str(BENCH))
        for name in ("workloads", "checks", "oracle"):
            sys.modules.pop(name, None)


def test_bench_reads_of_returned_objects(bench, capsys):
    workloads, checks = bench
    # a clean chain, and the same chain with a zero first module, which no
    # pattern that measures node 2 can identify, so those are set aside
    key, modules, profile, _ = workloads.fixed_chain("equal", 0)
    zero_gain = ("zero-gain", [ParamModule("fir", (0.0,))] + modules[1:], profile)
    dead = []
    for chain in ((key, modules, profile), zero_gain):
        _, ranked = workloads.RankOp(*chain).run(0, 1)
        assert sorted(ranked["order"] + ranked["dead"]) == list(range(1 << (workloads.RANK_N - 2)))
        assert set(ranked["trace"]) == set(ranked["order"])
        dead.append(len(ranked["dead"]))
    assert dead[0] == 0 < dead[1]

    cfg = ScenarioConfig(n=4, family="first_order", runs=3)
    outcomes = checks.serial_outcomes(cfg)
    assert checks.aggregate(cfg, outcomes) == workloads.report_summary(run_scenario(cfg, workers=1))

    network = BENCH / "networks" / "disagree.json"
    assert main(["rank", "--network", str(network), "--format", "json"]) == 0
    rows, _ = checks.parse_cli(capsys.readouterr().out)
    modules, profile = checks.load_network_file(network)
    labels = [emp.label for emp in workloads.patterns_of(len(modules) + 1, profile)]
    assert sorted(row["pattern"] for row in rows) == sorted(labels)


def test_oracle_imports_nothing_of_the_package_or_the_tests():
    """Tier-1 checks the engine against ``bench/oracle.py``: an independent
    computation only while it takes no code from emprank or the tests."""
    nodes = list(ast.walk(ast.parse((BENCH / "oracle.py").read_text())))
    roots = {a.name.split(".")[0] for n in nodes if isinstance(n, ast.Import) for a in n.names}
    roots |= {n.module.split(".")[0] if n.level == 0 else "." for n in nodes if isinstance(n, ast.ImportFrom)}
    assert "numpy" in roots and "." not in roots
    assert not roots & {"emprank", *(path.stem for path in Path(__file__).parent.glob("*.py"))}
