"""Discrete-time SISO transfer functions and parametrized module families.

Filters are ratios of polynomials in the forward-shift operator q, stored in
descending powers of q with a monic denominator: b/(q + a) is num=[b],
den=[1, a].  Impulse responses are the one-sided sequences h(0), h(1), ...
of the equivalent q^{-1} difference equation, so a length-(M+1) FIR module
g_0 + g_1 q^{-1} + ... + g_M q^{-M} has numerator [g_0, ..., g_M] over the
pure-delay denominator q^M and is exactly its own impulse response.

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
    "DEFAULT_MAX_LEN",
    "DEFAULT_TAIL_TOL",
    "FAMILIES",
    "FIR",
    "FIRST_ORDER",
    "SECOND_ORDER",
    "STABILITY_MARGIN",
    "ParamModule",
    "StructureError",
    "TransferFunction",
    "UnstableFilterError",
    "impulse_response",
    "is_stable",
    "module_responses",
    "param_jacobian",
    "realize",
    "series",
    "unit_filter",
    "zero_filter",
]

STABILITY_MARGIN = 1.0 - 1e-9
DEFAULT_MAX_LEN = 4096
DEFAULT_TAIL_TOL = 1e-12

FIR = "fir"
FIRST_ORDER = "first_order"
SECOND_ORDER = "second_order"
FAMILIES = (FIR, FIRST_ORDER, SECOND_ORDER)


class StructureError(ValueError):
    """Coefficients or parameters do not define a valid filter."""


class UnstableFilterError(ValueError):
    """A stable filter was required but a pole lies on or outside the unit
    circle, or so close to it that the response never decays in practice."""


def _as_poly(c, what):
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.ndim != 1 or c.size == 0:
        raise StructureError(f"{what} must be a non-empty 1-d coefficient array")
    if not np.all(np.isfinite(c)):
        raise StructureError(f"{what} has non-finite coefficients")
    return c


def _trim_leading(c):
    nz = np.flatnonzero(c)
    if nz.size == 0:
        return c[-1:]
    return c[nz[0]:]


@dataclass(frozen=True, eq=False)
class TransferFunction:
    """Proper rational filter num(q)/den(q) with a monic denominator."""

    num: np.ndarray
    den: np.ndarray

    def __init__(self, num, den):
        num = _trim_leading(_as_poly(num, "numerator"))
        den = _trim_leading(_as_poly(den, "denominator"))
        if den[0] == 0.0:
            raise StructureError("denominator is identically zero")
        if num.size > den.size:
            raise StructureError("filter is improper (numerator degree exceeds denominator)")
        num = num / den[0]
        den = den / den[0]
        num.flags.writeable = False
        den.flags.writeable = False
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def order(self):
        return self.den.size - 1

    @property
    def is_delay_line(self):
        """True when the denominator is a pure power of q (FIR-type filter)."""
        return self.den.size == 1 or not np.any(self.den[1:])

    def poles(self):
        if self.den.size == 1:
            return np.empty(0, dtype=complex)
        return np.roots(self.den)

    def pole_radius(self):
        cached = self.__dict__.get("_rho")
        if cached is None:
            cached = 0.0 if self.is_delay_line else float(np.max(np.abs(self.poles())))
            object.__setattr__(self, "_rho", cached)
        return cached

    def shift_coefficients(self):
        """(b, a) pair in powers of q^{-1}, suitable for scipy.signal.lfilter."""
        pad = np.zeros(self.den.size - self.num.size)
        return np.concatenate([pad, self.num]), self.den

    def evaluate(self, z):
        """Frequency/complex response num(z)/den(z)."""
        return np.polyval(self.num, z) / np.polyval(self.den, z)

    def __repr__(self):
        return f"TransferFunction(num={self.num.tolist()}, den={self.den.tolist()})"


def unit_filter():
    return TransferFunction([1.0], [1.0])


def zero_filter():
    return TransferFunction([0.0], [1.0])


def is_stable(tf, margin=STABILITY_MARGIN):
    """True iff every pole magnitude is strictly below ``margin``."""
    return tf.pole_radius() < margin


def series(a, b):
    """Cascade product a*b by polynomial convolution; no pole-zero cancellation."""
    return TransferFunction(np.convolve(a.num, b.num), np.convolve(a.den, b.den))


def _strip_tail(h, tol):
    above = np.flatnonzero(np.abs(h) >= tol)
    cut = int(above[-1]) + 1 if above.size else 1
    return h[:cut]


def impulse_response(tf, max_len=DEFAULT_MAX_LEN, tail_tol=DEFAULT_TAIL_TOL):
    """Truncated impulse response of a stable filter.

    Returns ``(h, converged)`` where ``h`` keeps every sample up to the last
    one with ``|h(k)| >= tail_tol``.  For delay-line (FIR-type) filters the
    response is the padded numerator, exact by construction.  For genuinely
    rational filters the recursion is run until a trailing window of
    ``max(8, 2*order)`` consecutive samples sits below ``tail_tol``; the
    geometric envelope rho^k set by the largest pole magnitude rho < 1 then
    keeps every later sample below the tolerance as well.  If ``max_len`` is
    reached first, the full buffer is returned with ``converged=False``.

    Raises
    ------
    UnstableFilterError
        If the filter fails the stability margin; its response diverges.
    """
    from scipy.signal import lfilter

    b, a = tf.shift_coefficients()
    if tf.is_delay_line:
        h = np.array(b, dtype=float)
        if h.size > max_len:
            dropped = h[max_len:]
            return h[:max_len], bool(np.all(np.abs(dropped) < tail_tol))
        return _strip_tail(h, tail_tol), True
    if not is_stable(tf):
        raise UnstableFilterError(
            f"impulse response diverges: largest pole magnitude {tf.pole_radius():.6g}"
        )
    rho = tf.pole_radius()
    window = max(8, 2 * tf.order)
    guess = b.size + window + int(np.ceil(np.log(tail_tol) / np.log(rho))) if rho > 0 else b.size + window
    n = int(min(max_len, max(64, guess)))
    while True:
        x = np.zeros(n)
        x[0] = 1.0
        h = lfilter(b, a, x)
        above = np.flatnonzero(np.abs(h) >= tail_tol)
        cut = int(above[-1]) + 1 if above.size else 1
        if n - cut >= window:
            return h[:cut], True
        if n >= max_len:
            return h, False
        n = int(min(max_len, 2 * n))


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
        expected = {FIRST_ORDER: 2, SECOND_ORDER: 4}.get(self.family)
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


@lru_cache(maxsize=1024)
def realize(module):
    """Build the TransferFunction a ParamModule parametrizes."""
    t = np.asarray(module.theta)
    if module.family == FIR:
        return TransferFunction(t, np.concatenate([[1.0], np.zeros(t.size - 1)]))
    if module.family == FIRST_ORDER:
        a, b = t
        return TransferFunction([b], [1.0, a])
    num, den = t[:2], np.concatenate([[1.0], t[2:]])
    return TransferFunction(num, den)


@lru_cache(maxsize=1024)
def param_jacobian(module):
    """Per-parameter derivative filters dG/dtheta_m, in theta order.

    For a tap g_k of an FIR module the derivative is the bare delay q^{-k}.
    For rational families, the derivative with respect to a numerator
    coefficient of q^j is q^j/A(q) and with respect to a denominator
    coefficient of q^j is -q^j B(q)/A(q)^2.
    """
    tf = realize(module)
    if module.family == FIR:
        return tuple(
            TransferFunction([1.0], np.concatenate([[1.0], np.zeros(k)]))
            for k in range(module.n_params)
        )
    den2 = np.convolve(tf.den, tf.den)
    if module.family == FIRST_ORDER:
        return (
            TransferFunction(-tf.num, den2),     # d/da of b/(q+a)
            TransferFunction([1.0], tf.den),     # d/db
        )
    q = np.array([1.0, 0.0])
    return (
        TransferFunction(q, tf.den),                       # d/dt1: q/A
        TransferFunction([1.0], tf.den),                   # d/dt2: 1/A
        TransferFunction(-np.convolve(q, tf.num), den2),   # d/dt3: -qB/A^2
        TransferFunction(-tf.num, den2),                   # d/dt4: -B/A^2
    )


def module_responses(module, x):
    """Response G = B/A of a module and of its ``param_jacobian`` filters (one
    row per parameter) at unit delays x = e^{-iw}: q^-m/A for a numerator and
    -q^-m G/A for a denominator coefficient, never squaring out A."""
    b, a = realize(module).shift_coefficients()
    den = np.polyval(a[::-1], x)
    g = np.polyval(b[::-1], x) / den
    if module.family == FIR:
        return g, np.array([x**m for m in range(module.n_params)])
    if module.family == FIRST_ORDER:
        return g, np.array([-g * x / den, x / den])
    x2 = x * x
    return g, np.array([x / den, x2 / den, -g * x / den, -g * x2 / den])
