"""Cascade network topology: n nodes chained by n-1 SISO modules.

Module k (1-indexed) sits on the edge from node k to node k+1, so the only
signal paths run forward along the chain and the node-to-node transfer matrix
is unit-lower-triangular.  Path gains are built structurally as products of
the edge filters; no matrix inversion is ever performed.

The network also owns the pair Grams that patterns' information is built
from (``pair_grams``).  The stack F_ij of excited node i and measured node
j > i has rows dG_k/dtheta_{k,m} * path(i, k) * path(k+1, j), i <= k < j; its
unit-variance Gram is Re(F_ij W F_ij^H) by Parseval on the nonnegative
frequencies of an N-point FFT grid, with the paths as prefix products.
Only those rows are evaluated; the others stay zero, and the Gram product
still runs over all rows, so each entry keeps its summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .lti import (
    FIR,
    FIRST_ORDER,
    STABILITY_MARGIN,
    ParamModule,
    UnstableFilterError,
    module_responses,
    realize,
    series,
)

__all__ = ["CascadeNetwork", "PairGrams"]

# enough grid once the last quarter of the slowest periodized response holds
# less than this share of its norm (what wraps around is smaller still)
GRID_TAIL = 1e-12
MAX_GRID = 1 << 20
CHUNK = 1 << 20  # stack entries evaluated at once (pairs x parameters x grid points)
UNIT = realize(ParamModule(FIR, (1.0,)))  # the unit filter ([1.], [1.])


@dataclass(frozen=True)
class PairGrams:
    """Unit-variance Gram of each pair (``src[q]``, ``dst[q]``) in ``grams[q]``,
    over all module-major parameters (zero outside modules src..dst-1); pairs
    run (1, 2), (1, 3), ..., (n-1, n) and ``n_fft`` is the grid size."""

    src: np.ndarray
    dst: np.ndarray
    grams: np.ndarray
    n_fft: int


def _radius(module):
    """Largest pole magnitude of a module in closed form: |a| for b/(q + a);
    for q^2 + t3 q + t4, sqrt(t4) (complex pair) or (|t3| + sqrt(t3^2 - 4 t4))/2."""
    t = module.theta
    if module.family == FIR:
        return 0.0
    if module.family == FIRST_ORDER:
        return abs(t[0])
    disc = t[2] * t[2] - 4.0 * t[3]
    return math.sqrt(t[3]) if disc < 0 else (abs(t[2]) + math.sqrt(disc)) / 2


def _grid(n_fft):
    return np.exp(-2j * np.pi * np.arange(n_fft // 2 + 1) / n_fft)


def _grid_size(modules, radii):
    """Smallest power-of-two grid on which the slowest response, the rows of
    the slowest module in pair (1, n), has decayed; its first guess covers
    the FIR parts and the samples the largest pole radius needs.  A chain
    without poles (all FIR) ends there: its responses are polynomials of
    degree at most its parameter count, held by the grid without wrap-around."""
    slow = int(np.argmax(radii))
    decay = np.log(GRID_TAIL) / np.log(radii[slow]) if radii[slow] > 0 else 0.0
    n_fft = 64
    while n_fft < sum(2 * m.n_params for m in modules) + 4.0 / 3.0 * decay:
        n_fft *= 2
    if radii[slow] == 0:
        return n_fft
    # probed apart from _pair_grams: checked there, a failed first guess (15% of second-order draws) costs a Gram pass
    while n_fft <= MAX_GRID:
        x = _grid(n_fft)
        rows = module_responses(modules[slow], x)[1]
        for m in modules[:slow] + modules[slow + 1:]:
            rows = rows * module_responses(m, x)[0]
        h = np.fft.irfft(rows, n_fft)
        if np.all(np.linalg.norm(h[:, -(n_fft // 4):], axis=1) <= GRID_TAIL * np.linalg.norm(h, axis=1)):
            return n_fft
        n_fft *= 2
    raise UnstableFilterError(
        f"module {slow + 1} decays too slowly (pole radius {radii[slow]:.6g}): "
        f"its responses need more than {MAX_GRID} grid points"
    )


def _pair_grams(modules, radii):
    n = len(modules) + 1
    module = np.repeat(np.arange(n - 1), [m.n_params for m in modules])
    src, dst = np.triu_indices(n, 1)
    n_fft = _grid_size(modules, radii)
    x_all = _grid(n_fft)
    weight = np.full(x_all.size, 2.0 / n_fft)
    weight[[0, -1]] = 1.0 / n_fft  # zero and Nyquist frequency appear once
    step = max(1, CHUNK // (src.size * module.size))
    # (pair, row) of the only rows that can be nonzero: modules src..dst-1
    nz_q, nz_a = np.nonzero((src[:, None] <= module) & (module < dst[:, None]))
    grams = np.zeros((src.size, module.size, module.size))
    for lo in range(0, x_all.size, step):
        x = x_all[lo: lo + step]
        # paths[a, b]: response from node a to node b (0-indexed), zero for a > b
        paths = np.zeros((n, n, x.size), dtype=complex)
        paths[np.arange(n), np.arange(n)] = 1.0
        d = []
        for k, m in enumerate(modules):
            g, dk = module_responses(m, x)
            paths[: k + 1, k + 1] = paths[: k + 1, k] * g
            d.append(dk)
        d = np.concatenate(d) * np.sqrt(weight[lo: lo + step])
        rows = d[nz_a] * paths[src[nz_q], module[nz_a]] * paths[module[nz_a] + 1, dst[nz_q]]
        parts = np.zeros((src.size, module.size, 2 * x.size))
        parts[nz_q, nz_a, : x.size] = rows.real
        parts[nz_q, nz_a, x.size:] = rows.imag
        grams += parts @ parts.transpose(0, 2, 1)
    grams = 0.5 * (grams + grams.transpose(0, 2, 1))
    return PairGrams(src + 1, dst + 1, grams, n_fft)


class CascadeNetwork:
    """Immutable chain of stable modules.

    Parameters
    ----------
    modules : sequence of ParamModule
        Edge filters in chain order; module k connects node k to node k+1.

    Raises
    ------
    UnstableFilterError
        If any realized module fails the stability margin.  The message names
        the offending module.
    """

    def __init__(self, modules):
        modules = tuple(modules)
        if not modules:
            raise ValueError("a cascade needs at least one module (two nodes)")
        radii = tuple(_radius(m) for m in modules)
        for k, rho in enumerate(radii, start=1):
            if not rho < STABILITY_MARGIN:
                raise UnstableFilterError(f"module {k} is unstable (pole magnitude {rho:.6g})")
        self._modules = modules
        self._radii = radii

    @property
    def n(self):
        """Number of nodes."""
        return len(self._modules) + 1

    @property
    def modules(self):
        return self._modules

    @property
    def identical_modules(self):
        return all(m == self._modules[0] for m in self._modules[1:])

    @property
    def param_slices(self):
        """Slice of each module's parameters in the module-major parameter vector."""
        stops = np.cumsum([m.n_params for m in self._modules])
        return [slice(int(b - m.n_params), int(b)) for m, b in zip(self._modules, stops)]

    @cached_property
    def pair_grams(self):
        """PairGrams of the network, computed on first use.  Raises
        UnstableFilterError, naming the module, when a pole lies so close to
        the unit circle (within about 1e-4) that the responses need more
        than MAX_GRID grid points."""
        return _pair_grams(self._modules, self._radii)

    def path_gain(self, i, j):
        """Product (b, a) of the module filters along the path from node i to
        node j, multiplied in chain order.

        path_gain(i, i) is the unit filter ([1.], [1.]); i > j raises because
        a cascade has no reverse paths.
        """
        n = self.n
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"nodes must lie in 1..{n}, got ({i}, {j})")
        if i > j:
            raise ValueError(f"no path from node {i} back to node {j} in a cascade")
        return reduce(series, map(realize, self._modules[i - 1: j - 1]), UNIT)

    def __repr__(self):
        return f"CascadeNetwork(n={self.n}, modules={list(self._modules)!r})"
