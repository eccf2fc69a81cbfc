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
broadcasting, then one contraction with the stacked Grams.  M is inverted
through its Jacobi scaling S = DMD, D = diag(M)^-1/2, whose unit diagonal
makes it independent of parameter units: a stacked Cholesky S = LL^T and
X = L^-1 give the per-sample asymptotic covariance P = M^-1 = D X^T X D.
cov(theta_hat) over N samples is then P/N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .emp import _check_nodes
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

RCOND_THRESHOLD = 1e-12
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
    derived per-module diagnostics for one pattern on one network.  rcond is
    1/(||S||_1 ||S^-1||_1) of the scaled S = DMD; 0 when S is not formed or not factored."""

    M: np.ndarray
    P: np.ndarray
    rcond: float
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
    A pattern is informative when diag(M) is finite and positive, S has a
    Cholesky factor, rcond > RCOND_THRESHOLD and P, trace and logdet are
    finite; otherwise, also when float64 overflows, its result has P=None.
    Returns one InfoResult per pattern, in order.
    """
    # einsum's fixed summation order keeps each M independent of the batch,
    # and exactly symmetric, since the pair Grams are
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the finiteness tests below
        M = np.einsum("ek,kab->eab", _pair_weights(net, sigma2, lam), net.pair_grams.grams)
        d = np.diagonal(M, axis1=1, axis2=2)
        ok = ((d > 0) & (d < np.inf)).all(axis=1)
        D = 1.0 / np.sqrt(np.where(ok[:, None], d, 1.0))
        S, eye = M * D[:, :, None] * D[:, None, :], np.eye(M.shape[1])
        S[~ok] = eye  # I stands in for the patterns set aside
        try:
            X = np.linalg.cholesky(S)  # L, overwritten below by L^-1
        except np.linalg.LinAlgError:  # factor one pattern at a time and set aside those that fail
            for e in range(len(S)):
                try:
                    np.linalg.cholesky(S[e])
                except np.linalg.LinAlgError:
                    S[e], ok[e] = eye, False
            X = np.linalg.cholesky(S)
        logdet = 2.0 * (np.log(D).sum(axis=1) - np.log(np.diagonal(X, axis1=1, axis2=2)).sum(axis=1))
        for i, r in enumerate(1.0 / np.diagonal(X, axis1=1, axis2=2).T):  # forward substitution, row by row
            X[:, i, :i] = -(X[:, i, None, :i] @ X[:, :i, :i])[:, 0] * r[:, None]
            X[:, i, i] = r
        norm_s = np.linalg.norm(S, 1, axis=(1, 2))
        P = np.matmul(X.transpose(0, 2, 1), X, out=S)  # S^-1 = X^T X in the memory of S, scaled to P below
        rcond = np.where(ok, 1.0 / (norm_s * np.linalg.norm(P, 1, axis=(1, 2))), 0.0)
        P *= D[:, :, None] * D[:, None, :]
        P += P.transpose(0, 2, 1)  # numpy buffers the overlapping operand
        P *= 0.5
        diag = np.diagonal(P, axis1=1, axis2=2)
        trace = diag.sum(axis=1)
        ok &= (rcond > RCOND_THRESHOLD) & np.isfinite(P).all(axis=(1, 2))
        ok &= np.isfinite(trace) & np.isfinite(logdet)
    traces = np.add.reduceat(diag, [s.start for s in net.param_slices], axis=1).tolist()
    trace, logdet, rcond = trace.tolist(), logdet.tolist(), rcond.tolist()
    return [
        InfoResult(M[e], P[e], rcond[e], {"trace": trace[e], "logdet": logdet[e]}, traces[e])
        if ok[e]
        else InfoResult(M[e], None, rcond[e], None, None)
        for e in range(len(M))
    ]


def information_matrix(net, emp):
    """The InfoResult of one Emp: ``information_batch`` of a batch of one."""
    _check_nodes(emp.pattern, net.n)
    sigma2, lam = np.zeros((1, net.n + 1)), np.full((1, net.n + 1), np.inf)
    sigma2[0, list(emp.sigma2)] = list(emp.sigma2.values())
    lam[0, list(emp.lam)] = list(emp.lam.values())
    return information_batch(net, sigma2, lam)[0]


def _check_kind(kind):
    if kind not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {kind!r}")


def criterion(result, kind="trace"):
    """Scalar design criterion of a covariance result: trace(P) or logdet(P)."""
    _check_kind(kind)
    if not result.informative:
        raise NonInformativeError(
            f"pattern is non-informative (rcond={result.rcond:.3g}); no covariance exists"
        )
    return result.criteria[kind]
