"""Discrete-time SISO filters and parametrized module families.

A filter is a plain pair (b, a) of read-only float arrays holding the
coefficients of B(q^-1)/A(q^-1) in ascending powers of q^-1, as
``scipy.signal.lfilter`` takes them, with a[0] = 1 and len(b) == len(a):
b/(q + a) is ([0, b], [1, a]).  Impulse responses are the one-sided
sequences h(0), h(1), ... of that difference equation, so a length-(M+1)
FIR module g_0 + g_1 q^-1 + ... + g_M q^-M is ([g_0, ..., g_M],
[1, 0, ..., 0]) and b is exactly its own impulse response.

Three module families are supported:

``fir``
    theta = (g_0, ..., g_M), any length >= 1.
``first_order``
    theta = (a, b) realizing b/(q + a).
``second_order``
    theta = (t1, t2, t3, t4) realizing (t1 q + t2)/(q^2 + t3 q + t4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "FAMILIES",
    "FAMILY_SIZES",
    "FIR",
    "FIRST_ORDER",
    "SECOND_ORDER",
    "STABILITY_MARGIN",
    "ParamModule",
    "StructureError",
    "UnstableFilterError",
    "impulse_response",
    "module_responses",
    "param_jacobian",
    "pole_radius",
    "realize",
    "series",
]

STABILITY_MARGIN = 1.0 - 1e-9
_MAX_LEN = 4096  # longest impulse response computed
_TAIL_TOL = 1e-12  # samples below this magnitude end a response

FIR = "fir"
FIRST_ORDER = "first_order"
SECOND_ORDER = "second_order"
FAMILIES = (FIR, FIRST_ORDER, SECOND_ORDER)
# parameters per module of the fixed-size families; fir takes any number of taps
FAMILY_SIZES = {FIRST_ORDER: 2, SECOND_ORDER: 4}


class StructureError(ValueError):
    """Module parameters do not define a valid filter."""


class UnstableFilterError(ValueError):
    """A stable filter was required but a pole lies on or outside the unit
    circle, or so close to it that the response never decays in practice."""


def _pair(num, den):
    """Read-only (b, a) of num(q)/den(q), given in descending powers of q with
    den monic: num zero-padded in front to the length of den."""
    a = np.array(den, dtype=float)
    b = np.zeros(a.size)
    b[a.size - len(num):] = num
    b.flags.writeable = a.flags.writeable = False
    return b, a


def pole_radius(filt):
    """Largest pole magnitude of the filter (b, a); 0 for a delay line."""
    a = filt[1]
    return float(np.max(np.abs(np.roots(a)))) if np.any(a[1:]) else 0.0


def series(f, g):
    """Cascade product f*g by polynomial convolution; no pole-zero cancellation."""
    return _pair(np.convolve(f[0], g[0]), np.convolve(f[1], g[1]))


def _kept(h, tol):
    """Samples up to the last one with |h(k)| >= tol, at least one."""
    above = np.flatnonzero(np.abs(h) >= tol)
    return int(above[-1]) + 1 if above.size else 1


def impulse_response(filt):
    """Truncated impulse response of a stable filter (b, a).

    Returns ``(h, converged)`` where ``h`` keeps every sample up to the last
    one with ``|h(k)| >= 1e-12``.  For delay-line (FIR-type) filters the
    response is b itself, exact by construction.  For genuinely rational
    filters the recursion is run until a trailing window of
    ``max(8, 2*order)`` consecutive samples sits below that tolerance; the
    geometric envelope rho^k set by the largest pole magnitude rho < 1 then
    keeps every later sample below it as well.  If 4096 samples are reached
    first, all of them are returned with ``converged=False``.

    Raises
    ------
    UnstableFilterError
        If the filter fails the stability margin; its response diverges.
    """
    from scipy.signal import lfilter

    b, a = filt
    rho = pole_radius(filt)
    if rho == 0.0:
        return np.array(b[: _kept(b, _TAIL_TOL)], dtype=float), True
    if not rho < STABILITY_MARGIN:
        raise UnstableFilterError(f"impulse response diverges: largest pole magnitude {rho:.6g}")
    window = max(8, 2 * (len(a) - 1))
    n = int(min(_MAX_LEN, max(64, len(b) + window + int(np.ceil(np.log(_TAIL_TOL) / np.log(rho))))))
    while True:
        x = np.zeros(n)
        x[0] = 1.0
        h = lfilter(b, a, x)
        cut = _kept(h, _TAIL_TOL)
        if n - cut >= window:
            return h[:cut], True
        if n >= _MAX_LEN:
            return h, False
        n = int(min(_MAX_LEN, 2 * n))


@dataclass(frozen=True)
class ParamModule:
    """A module family tag plus its parameter vector."""

    family: str
    theta: tuple

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise StructureError(f"unknown module family {self.family!r}")
        theta = tuple(float(t) for t in np.atleast_1d(np.asarray(self.theta, dtype=float)))
        if not all(np.isfinite(theta)):
            raise StructureError("module parameters must be finite")
        expected = FAMILY_SIZES.get(self.family)
        if expected is not None and len(theta) != expected:
            raise StructureError(
                f"{self.family} takes {expected} parameters, got {len(theta)}"
            )
        if self.family == FIR and len(theta) < 1:
            raise StructureError("fir needs at least one tap")
        object.__setattr__(self, "theta", theta)

    @property
    def n_params(self):
        return len(self.theta)


def _num_den(module):
    """Numerator and denominator of a module in descending powers of q."""
    t = np.asarray(module.theta)
    if module.family == FIR:
        return t, np.eye(1, t.size)[0]
    if module.family == FIRST_ORDER:
        return t[1:], np.array([1.0, t[0]])
    return t[:2], np.concatenate([[1.0], t[2:]])


@lru_cache(maxsize=1024)
def realize(module):
    """The filter (b, a) a ParamModule parametrizes."""
    return _pair(*_num_den(module))


@lru_cache(maxsize=1024)
def param_jacobian(module):
    """Per-parameter derivative filters dG/dtheta_m, in theta order.

    For a tap g_k of an FIR module the derivative is the bare delay q^{-k}.
    For rational families, the derivative with respect to a numerator
    coefficient of q^j is q^j/A(q) and with respect to a denominator
    coefficient of q^j is -q^j B(q)/A(q)^2.
    """
    if module.family == FIR:
        return tuple(_pair([1.0], np.eye(1, k + 1)[0]) for k in range(module.n_params))
    num, den = _num_den(module)
    den2 = np.convolve(den, den)
    if module.family == FIRST_ORDER:
        return _pair(-num, den2), _pair([1.0], den)  # d/da, d/db of b/(q+a)
    q = np.array([1.0, 0.0])
    return (
        _pair(q, den),                       # d/dt1: q/A
        _pair([1.0], den),                   # d/dt2: 1/A
        _pair(-np.convolve(q, num), den2),   # d/dt3: -qB/A^2
        _pair(-num, den2),                   # d/dt4: -B/A^2
    )


def module_responses(module, x):
    """Response G = B/A of a module and of its ``param_jacobian`` filters (one
    row per parameter) at unit delays x = e^{-iw}: q^-m/A for a numerator and
    -q^-m G/A for a denominator coefficient, never squaring out A.  FIR rows
    are the delays x^m by cumulative product and G = theta . rows; rational
    families evaluate B and A by Horner on theta, as ``np.polyval`` does."""
    t = module.theta
    if module.family == FIR:
        rows = np.cumprod([np.ones_like(x)] + [x] * (len(t) - 1), axis=0)
        return np.asarray(t) @ rows, rows
    if module.family == FIRST_ORDER:
        den = t[0] * x + 1.0
        g = t[1] * x / den
        return g, np.array([-g * x / den, x / den])
    den = (t[3] * x + t[2]) * x + 1.0
    g = (t[1] * x + t[0]) * x / den
    x2 = x * x
    return g, np.array([x / den, x2 / den, -g * x / den, -g * x2 / den])
