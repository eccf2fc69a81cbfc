"""Independent reference for the information matrix of a cascade pattern.

Nothing here uses emprank.  Module responses come straight from the
parameter vectors through ``scipy.signal.lfilter``; parameter derivatives
of every pair impulse response come from a complex-step finite difference
(perturb one parameter by i*h and read the imaginary part), which has no
subtractive cancellation, so the reference M is accurate to rounding.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter

RCOND_THRESHOLD = 1e-10  # the program's informative/non-informative cut
STEP = 1e-30
TAIL = 1e-17  # relative size of the last samples kept in a response


def coefficients(family, theta):
    """(b, a) in powers of q^-1 for one module, read from its family and theta."""
    t = list(theta)
    if family == "fir":
        return t, [1.0]
    if family == "first_order":
        a, b = t
        return [0.0, b], [1.0, a]
    if family == "second_order":
        t1, t2, t3, t4 = t
        return [0.0, t1, t2], [1.0, t3, t4]
    raise ValueError(f"unknown family {family!r}")


def _length(modules):
    """Samples needed for the slowest pair response to decay below TAIL."""
    length = 64
    while True:
        x = np.zeros(length)
        x[0] = 1.0
        for family, theta in modules:
            x = lfilter(*coefficients(family, theta), x)
        head = np.max(np.abs(x))
        if head == 0.0 or np.max(np.abs(x[-length // 4:])) <= TAIL * head:
            return length
        if length > 1 << 20:
            raise ValueError("oracle responses do not decay")
        length *= 2


class Reference:
    """Pair Grams of a cascade ``[(family, theta), ...]`` and the per-pattern
    information they give."""

    def __init__(self, modules):
        self.modules = [(f, tuple(float(v) for v in t)) for f, t in modules]
        self.n = len(self.modules) + 1
        dims = [len(t) for _, t in self.modules]
        self.offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
        self.p = int(self.offsets[-1])
        self.length = _length(self.modules)
        self.grams = self._grams()

    def _grams(self):
        n, length, p = self.n, self.length, self.p
        impulse = np.zeros(length)
        impulse[0] = 1.0
        # prefix[i][k]: real response at node k to an impulse at node i
        prefix = {}
        for i in range(1, n):
            x = impulse
            prefix[i] = {i: x}
            for k in range(i, n):
                x = lfilter(*coefficients(*self.modules[k - 1]), x)
                prefix[i][k + 1] = x
        psi = {(i, j): np.zeros((p, length)) for i in range(1, n) for j in range(i + 1, n + 1)}
        for k in range(1, n):
            family, theta = self.modules[k - 1]
            for m in range(len(theta)):
                shifted = np.array(theta, dtype=complex)
                shifted[m] += 1j * STEP
                b, a = coefficients(family, shifted)
                row = self.offsets[k - 1] + m
                for i in range(1, k + 1):
                    x = lfilter(b, a, prefix[i][k].astype(complex))
                    psi[i, k + 1][row] = x.imag / STEP
                    for j in range(k + 1, n):
                        x = lfilter(*coefficients(*self.modules[j - 1]), x)
                        psi[i, j + 1][row] = x.imag / STEP
        return {pair: g @ g.T for pair, g in psi.items()}

    def information(self, emps):
        """Per-sample M of each pattern (objects with ``excited``,
        ``measured``, ``sigma2`` and ``lam``), stacked along axis 0."""
        pairs = sorted(self.grams)
        src = np.array([i for i, _ in pairs])
        dst = np.array([j for _, j in pairs])
        weights = np.zeros((len(emps), len(pairs)))
        for e, emp in enumerate(emps):
            # sigma2[i] / lam[j] where i is excited and j measured: nodes the
            # pattern does not excite have zero variance, and nodes it does
            # not measure infinite noise
            sigma2 = np.zeros(self.n + 1)
            lam = np.full(self.n + 1, np.inf)
            sigma2[list(emp.sigma2)] = list(emp.sigma2.values())
            lam[list(emp.lam)] = list(emp.lam.values())
            weights[e] = sigma2[src] / lam[dst]
        grams = np.stack([self.grams[pair] for pair in pairs])
        return np.tensordot(weights, grams, axes=1)


def _ratio(w):
    top = w[:, -1]
    return np.where(top > 0, np.maximum(w[:, 0], 0.0) / np.where(top > 0, top, 1.0), 0.0)


def summaries(Ms):
    """Raw and Jacobi-scaled rcond, trace(P) and logdet(P) of each M.

    The criteria are None where M is not positive definite.
    """
    w = np.linalg.eigvalsh(Ms)
    d = np.sqrt(np.diagonal(Ms, axis1=1, axis2=2))
    scaled = _ratio(np.linalg.eigvalsh(Ms / (d[:, :, None] * d[:, None, :])))
    raw = _ratio(w)
    out = []
    for k in range(len(Ms)):
        positive = w[k, 0] > 0
        out.append(
            {
                "rcond": float(raw[k]),
                "scaled_rcond": float(scaled[k]),
                "trace": float(np.sum(1.0 / w[k])) if positive else None,
                "logdet": float(-np.sum(np.log(w[k]))) if positive else None,
            }
        )
    return out
