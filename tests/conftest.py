import numpy as np
import pytest

from emprank import CascadeNetwork, ParamModule
from emprank.lti import impulse_response


def filt(num, den):
    """The filter num(q)/den(q), given in descending powers of q with a monic
    den of degree at least that of num, as the package's (b, a) pair in
    powers of q^-1: num zero-padded in front to the length of den."""
    a = np.asarray(den, dtype=float)
    return np.concatenate([np.zeros(a.size - len(num)), num]), a


def white_correlation(a, b, variance):
    """Correlation matrix of two filter banks driven by shared white noise:
    entry (p, q) is variance * sum_t h_{a_p}(t) h_{b_q}(t), summed over
    impulse responses in the time domain, independently of the package's
    Parseval Grams."""
    rows = [impulse_response(f)[0] for f in list(a) + list(b)]
    h = np.zeros((len(rows), max(r.size for r in rows)))
    for out, r in zip(h, rows):
        out[: r.size] = r
    return variance * (h[: len(a)] @ h[len(a):].T)


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


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
