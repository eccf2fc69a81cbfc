"""Generated command lines, network files, pattern literals and scenario
configs through ``cli.main`` in-process.  Each input is mostly well formed,
with any field malformed now and then; every call ends with exit code 0, 2
or 3, never with an escaping exception."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from emprank.cli import main
from emprank.fisher import CRITERIA
from emprank.montecarlo import MODULE_FAMILIES

FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# No junk integer is a valid node count above 5: a FIR-Butterworth chain of
# 16 nodes ranks its 16,384 patterns in one batch of several gigabytes.
junk = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([-1, 0, 2, 17, 40]),
)


def mostly(valid, bad=junk):
    """``valid`` fifteen times in sixteen, else ``bad`` (at an inner value:
    Hypothesis draws the bounds of a range more often)."""
    return st.integers(0, 15).flatmap(lambda k: bad if k == 9 else valid)


modules = st.one_of(
    st.tuples(st.just("first_order"), st.tuples(st.floats(-1.2, 1.2), st.floats(0.5, 2.0))),
    st.tuples(  # |t3| < 1 + t4 and |t4| < 1: stable
        st.just("second_order"),
        st.tuples(st.just(1.0), st.floats(-3.0, 3.0), st.floats(-0.4, 0.4), st.floats(-0.5, 0.5)),
    ),
    st.tuples(st.just("fir"), st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5)),
).flatmap(
    lambda m: st.fixed_dictionaries({"family": mostly(st.just(m[0])), "theta": mostly(st.just(list(m[1])))})
)
positive = st.floats(1e-3, 1e3)


@st.composite
def network_files(draw):
    """(network spec, pattern literal)."""
    mods = draw(st.lists(modules, min_size=1, max_size=4))
    n = len(mods) + 1
    spec = {"modules": mods}
    if draw(st.booleans()):
        spec["n"] = draw(mostly(st.just(n)))
    if draw(st.booleans()):
        defaults = st.fixed_dictionaries({}, optional={"sigma2": mostly(positive), "lambda": mostly(positive)})
        spec["defaults"] = draw(mostly(defaults))
    excite = draw(st.lists(st.booleans(), min_size=n - 2, max_size=n - 2))  # a minimal pattern
    minimal = [1] + [k for k, e in enumerate(excite, 2) if e], [k for k, e in enumerate(excite, 2) if not e] + [n]
    nodes = st.lists(st.integers(-1, n + 2), min_size=1, max_size=n)
    b, c = draw(mostly(st.just(minimal), st.tuples(nodes, nodes)))
    extra = draw(st.sampled_from(["", "", ";sigma2=2", ";lambda=0.5", ";sigma2=x", ";lambda=0", ";lambda=inf,1"]))
    literal = f"B={','.join(map(str, b))};C={','.join(map(str, c))}{extra}"
    garbled = st.text(alphabet="BC=;,0123456789.-x", max_size=12)
    return draw(mostly(st.just(spec))), draw(mostly(st.just(literal), garbled))


scenarios = mostly(
    st.fixed_dictionaries(
        {
            "n": mostly(st.integers(3, 5)),
            "family": mostly(st.sampled_from(MODULE_FAMILIES)),
            "runs": mostly(st.integers(1, 3)),
        },
        optional={
            "variance_mode": mostly(st.sampled_from(["equal", "random"])),
            "identical": mostly(st.booleans()),
            "master_seed": mostly(st.integers(0, 50)),
            "criterion": mostly(st.sampled_from(CRITERIA)),
            "perturbation": mostly(
                st.fixed_dictionaries(
                    {"module": mostly(st.integers(1, 2))},
                    optional={"param": mostly(st.integers(0, 12)), "factor": mostly(st.floats(-3.0, 3.0))},
                )
            ),
        },
    )
)


def written(tmp, content):
    path = Path(tmp) / "input.json"
    path.write_text(json.dumps(content))
    return str(path)


def exit_code(argv):
    """main(argv)'s exit code, output discarded; argparse exits via SystemExit."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(FUZZ, max_examples=20)
@given(n=st.one_of(st.integers(-1, 10), st.sampled_from([17, 40])), fmt=st.sampled_from(["table", "csv", "json"]))
def test_enumerate(n, fmt):
    assert exit_code(["enumerate", "-n", str(n), "--format", fmt]) in (0, 2)


TINY_TAP = {  # its non-informative patterns overflowed 1/eigenvalue
    "modules": [
        {"family": "first_order", "theta": [0.0, 1.0]},
        {"family": "second_order", "theta": [1.0, 0.0, 0.25, 0.0]},
        {"family": "fir", "theta": [1.185557161964432e-151]},
    ]
}


@FUZZ
@given(case=network_files(), single=st.booleans(), criterion=mostly(st.sampled_from(CRITERIA), st.just("x")))
@example(case=(TINY_TAP, "B=1;C=2,3,4"), single=False, criterion="trace")
def test_rank(case, single, criterion):
    spec, literal = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["rank", "--network", written(tmp, spec), "--criterion", criterion]
        argv += ["--emp", literal] if single else ["--out", tmp, "--check-theorems"]
        assert exit_code(argv) in (0, 2, 3)


@settings(FUZZ, max_examples=15)
@given(
    case=network_files(),
    samples=mostly(st.sampled_from([51, 80]), st.just(50)),
    replications=mostly(st.just(30), st.just(29)),
    seed=mostly(st.integers(0, 50), st.just(-1)),
)
def test_validate(case, samples, replications, seed):
    spec, literal = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["validate", "--network", written(tmp, spec), "--emp", literal, "-N", str(samples)]
        assert exit_code(argv + ["--replications", str(replications), "--seed", str(seed)]) in (0, 2, 3)


FIR_PROBE = {"n": 4, "family": "fir_butterworth", "runs": 100, "master_seed": 3}


@FUZZ
@given(config=scenarios, runs=st.one_of(st.none(), st.integers(0, 3)), threads=mostly(st.just(1), st.just(0)))
@example(config=dict(FIR_PROBE, perturbation={"module": 1, "param": 15, "factor": 10}), runs=None, threads=1)
@example(config=dict(FIR_PROBE, perturbation={"module": 1, "param": 400, "factor": 10}), runs=None, threads=1)
@example(  # the Grams overflow
    config={"n": 3, "family": "first_order", "runs": 1, "perturbation": {"module": 1, "param": 1, "factor": 2e154}},
    runs=None,
    threads=1,
)
def test_montecarlo(config, runs, threads):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["montecarlo", "--config", written(tmp, config), "--out", tmp, "--threads", str(threads)]
        argv += ["--runs", str(runs)] if runs is not None else []
        assert exit_code(argv) in (0, 2, 3)
