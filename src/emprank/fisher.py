"""Asymptotic information and covariance of cascade module estimates.

For a measured node j fed from an excited node i < j, the prediction-error
gradient with respect to the parameters of module k (i <= k < j) is the
derivative filter of module k times the path gains on both sides of it:

    entry(k, m) = dG_k/dtheta_{k,m} * path(i, k) * path(k+1, j)

applied to the excitation at node i.  Stacking these entries over the modules
between i and j gives the gradient stack of the pair.  Because excitations
and sensor noises are white and mutually independent, the per-sample
information matrix is

    M = sum_{j measured} sum_{i excited, i < j} (sigma_i^2 / lambda_j) * G_ij

where G_ij, the Gram of the stack's impulse responses at unit variance, is
read from the network's Parseval pair-Gram table (``CascadeNetwork.pair_grams``).
A batch of patterns is given by per-node variance arrays sigma2 and lam of
shape (patterns, n+1): sigma2 is zero at an unexcited node, lam infinite at
an unmeasured one.  The patterns x pairs weights sigma2_i / lambda_j come by
broadcasting, then one contraction with the stacked Grams and one stacked
symmetric eigendecomposition.  The per-sample asymptotic covariance is
P = M^-1, formed only when the eigenvalue ratio shows M to be numerically
invertible; cov(theta_hat) over N samples is then P/N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lti import param_jacobian, series

__all__ = [
    "CRITERIA",
    "InfoResult",
    "NonInformativeError",
    "RCOND_THRESHOLD",
    "criterion",
    "gradient_stack",
    "information_batch",
    "information_matrix",
]

RCOND_THRESHOLD = 1e-10
CRITERIA = ("trace", "logdet")


class NonInformativeError(RuntimeError):
    """The experiment does not carry enough information to invert M."""


def gradient_stack(net, i, j):
    """Gradient stack of the pair excited node i -> measured node j: the
    entry filters (b, a) of each module k, keyed by k, for i <= k < j.

    i >= j yields an empty stack: the direct feedthrough of a node into its
    own sensor carries no parameter information and reverse paths do not
    exist in a cascade.
    """
    blocks = {}
    for k in range(i, j):
        base = series(net.path_gain(i, k), net.path_gain(k + 1, j))
        blocks[k] = tuple(series(d, base) for d in param_jacobian(net.modules[k - 1]))
    return blocks


@dataclass
class InfoResult:
    """Information matrix M, covariance P (None when non-informative), and
    derived per-module diagnostics for one pattern on one network."""

    M: np.ndarray
    P: np.ndarray
    rcond: float
    param_slices: list
    criteria: dict
    traces: list  # per-module block traces of P, None when non-informative

    @property
    def informative(self):
        return self.P is not None


def _pair_weights(net, sigma2, lam):
    """sigma2_i / lambda_j of each pattern (rows) and pair i < j (columns)."""
    first = np.argmax(sigma2 > 0, axis=1)  # first excited node of each pattern
    silent = np.argwhere((lam <= 0) & (np.arange(net.n + 1) > first[:, None]))
    if silent.size:
        raise ValueError(
            f"noise variance at measured node {silent[0, 1]} must be positive to assemble M"
        )
    table = net.pair_grams
    src, dst = sigma2[:, table.src], lam[:, table.dst]
    # zero, not 0/0, for a noiseless sensor paired with an unexcited node
    return np.divide(src, dst, out=np.zeros_like(src), where=src > 0)


def information_batch(net, sigma2, lam):
    """Assemble the per-sample information matrix of every pattern and invert it.

    sigma2 and lam are the per-node variance arrays of the patterns (see the
    module docstring).  Parameters are ordered module-major (all of module 1,
    then module 2, ...).  Only excited/measured pairs with i < j contribute.
    Each assembled matrix is inverted only when its eigenvalue ratio clears
    RCOND_THRESHOLD; otherwise, and when gains too large for float64 made it
    overflow, its result reports a non-informative pattern with P=None.
    Returns one InfoResult per pattern, in order.
    """
    slices = net.param_slices
    # einsum's fixed summation order keeps each M independent of the batch,
    # and exactly symmetric, since the pair Grams are
    with np.errstate(over="ignore", invalid="ignore"):  # caught as non-finite M below
        M = np.einsum("ek,kab->eab", _pair_weights(net, sigma2, lam), net.pair_grams.grams)
    finite = np.isfinite(M).all(axis=(1, 2))
    w, v = np.linalg.eigh(M if finite.all() else np.where(finite[:, None, None], M, 0.0))
    top = w[:, -1]
    rcond = np.divide(np.maximum(w[:, 0], 0.0), top, out=np.zeros_like(top), where=top > 0)
    ok = rcond > RCOND_THRESHOLD
    w = np.where(ok[:, None], w, 1.0)  # results of the other patterns are dropped
    P = (v / w[:, None, :]) @ v.transpose(0, 2, 1)
    trace = np.sum(1.0 / w, axis=1).tolist()
    logdet = (-np.sum(np.log(w), axis=1)).tolist()
    P = 0.5 * (P + P.transpose(0, 2, 1))
    traces = np.add.reduceat(np.diagonal(P, axis1=1, axis2=2), [s.start for s in slices], axis=1)
    rcond = rcond.tolist()
    return [
        InfoResult(
            M[e], P[e], rcond[e], slices, {"trace": trace[e], "logdet": logdet[e]}, traces[e].tolist()
        )
        if ok[e]
        else InfoResult(M[e], None, rcond[e], slices, None, None)
        for e in range(len(M))
    ]


def information_matrix(net, emp):
    """The InfoResult of one Emp: ``information_batch`` of a batch of one."""
    sigma2, lam = np.zeros((1, net.n + 1)), np.full((1, net.n + 1), np.inf)
    sigma2[0, list(emp.sigma2)] = list(emp.sigma2.values())
    lam[0, list(emp.lam)] = list(emp.lam.values())
    return information_batch(net, sigma2, lam)[0]


def criterion(result, kind="trace"):
    """Scalar design criterion of a covariance result: trace(P) or logdet(P)."""
    if kind not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {kind!r}")
    if not result.informative:
        raise NonInformativeError(
            f"pattern is non-informative (rcond={result.rcond:.3g}); no covariance exists"
        )
    return result.criteria[kind]
