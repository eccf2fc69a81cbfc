import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import reject
from hypothesis import strategies as st
from scipy.signal import lfilter

from emprank import CascadeNetwork, ParamModule, ScenarioConfig, UnstableFilterError
from emprank import montecarlo

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    """``bench/<name>.py`` loaded by file path, as module ``bench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = load_bench("oracle")  # the one reference the engine is checked against


def reference(modules):
    """The oracle's ``Reference`` (pair Grams, per-pattern M) of a chain of ParamModules."""
    return oracle.Reference([(m.family, m.theta) for m in modules])


def root_radius(module):
    """Largest pole modulus of a module: roots of the oracle's denominator."""
    return max(np.abs(np.roots(oracle.coefficients(module.family, module.theta)[1])), default=0.0)


def oracle_path(modules, i, j, x):
    """Response at node j to the signal x entering node i, and its derivative
    rows (module-major, zero outside modules i..j-1), filtered module by module
    through ``oracle.coefficients`` with a complex step of ``oracle.STEP``."""
    offsets = np.cumsum([0] + [m.n_params for m in modules])
    rows = np.zeros((offsets[-1], len(x)))
    for k in range(i, j):
        family, theta = modules[k - 1].family, modules[k - 1].theta
        for m in range(len(theta)):
            shifted = np.array(theta, dtype=complex)
            shifted[m] += 1j * oracle.STEP
            z = lfilter(*oracle.coefficients(family, shifted), x)
            for later in modules[k: j - 1]:
                z = lfilter(*oracle.coefficients(later.family, later.theta), z)
            rows[offsets[k - 1] + m] = z.imag / oracle.STEP
        x = lfilter(*oracle.coefficients(family, theta), x)
    return x, rows


def filt(num, den):
    """The filter num(q)/den(q), given in descending powers of q with a monic
    den of degree at least that of num, as the package's (b, a) pair in
    powers of q^-1: num zero-padded in front to the length of den."""
    a = np.asarray(den, dtype=float)
    return np.concatenate([np.zeros(a.size - len(num)), num]), a


def is_minimal(emp, n):
    """Whether the pattern is identifiable with the least possible cardinality.

    Requires node 1 excited, node n measured, every node covered, the two
    sets distinct, and total cardinality exactly n (so the interior nodes are
    partitioned between the sets).
    """
    if n < 2:
        raise ValueError("a cascade has at least 2 nodes")
    b, c = emp.excited, emp.measured
    if max(b | c) > n:
        raise ValueError(f"pattern references nodes beyond {n}")
    return (
        1 in b
        and n in c
        and b | c == frozenset(range(1, n + 1))
        and b != c
        and len(b) + len(c) == n
    )


def random_first_order(rng, pole_cap=0.9):
    a = rng.uniform(-pole_cap, pole_cap)
    b = rng.uniform(0.5, 2.0)
    return ParamModule("first_order", (a, b))


def random_fir(rng, max_taps=6):
    n = rng.integers(1, max_taps + 1)
    taps = rng.uniform(-1.0, 1.0, n)
    if abs(taps[0]) < 0.1:
        taps[0] = 0.5
    return ParamModule("fir", tuple(taps))


def random_second_order(rng):
    r = np.sqrt(rng.uniform(0.05, 0.8))
    phi = rng.uniform(0.0, np.pi)
    t3 = -2 * r * np.cos(phi)
    t4 = r * r
    return ParamModule("second_order", (1.0, rng.uniform(-1.0, 1.0), t3, t4))


def random_network(rng, n, family="first_order"):
    draw = {
        "first_order": random_first_order,
        "fir": random_fir,
        "second_order": random_second_order,
    }[family]
    return CascadeNetwork([draw(rng) for _ in range(n - 1)])


def identical_network(rng, n, family="first_order"):
    draw = {
        "first_order": random_first_order,
        "fir": random_fir,
        "second_order": random_second_order,
    }[family]
    module = draw(rng)
    return CascadeNetwork([module] * (n - 1))


def drawn_chain(n, family, law, run, master_seed=20260815):
    """Network and variances of one run of the Monte Carlo sampling law."""
    cfg = ScenarioConfig(n=n, family=family, runs=1, variance_mode=law, master_seed=master_seed)
    rng = np.random.default_rng([master_seed, run])
    return CascadeNetwork(montecarlo._draw_modules(cfg, rng)), montecarlo._draw_profile(cfg, rng)


@st.composite
def drawn_chains(draw):
    """Hypothesis draws of ``drawn_chain`` at n = 3..5 whose pair Grams exist."""
    n, family = draw(st.integers(3, 5)), draw(st.sampled_from(montecarlo.MODULE_FAMILIES))
    law, run = draw(st.sampled_from(["equal", "random"])), draw(st.integers(0, 10_000))
    try:
        net, profile = drawn_chain(n, family, law, run)
        net.pair_grams
    except UnstableFilterError:
        reject()
    return net, profile


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
