"""Simulate cascade experiments and identify the modules by prediction error.

The point of this module is an end-to-end check of the covariance engine:
simulate records under a pattern, fit the module parameters by weighted
least squares on the one-step predictions (damped Gauss-Newton with analytic
gradients, weights 1/lambda_j from the true noise variances), and compare the
sample covariance of sqrt(N)*(theta_hat - theta0) across replications with
the theoretical per-sample covariance P.

Simulation, prediction and the Jacobian share one pass down the chain
(``_forward``).  It carries the noise-free node signals w[k] from node to
node through the module between them, together with their parameter
sensitivities s[k] = dw[k]/dtheta, in one ``lfilter`` call per module; the
rows of module k itself are its derivative filters applied to w[k], one call
per rational-family parameter and a plain delay per FIR tap.  The one-step
prediction of a measured node j is w[j] and the Jacobian J of its residual
is -s[j]; each Gauss-Newton step solves the p x p normal equations in J^T J.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cascade import CascadeNetwork
from .emp import Emp, _check_nodes
from .fisher import criterion, information_matrix
from .lti import FIR, ParamModule, UnstableFilterError, param_jacobian, realize

__all__ = [
    "CovarianceCheck",
    "Dataset",
    "FitResult",
    "empirical_covariance",
    "pem_fit",
    "simulate",
]

TRANSIENT = 50  # samples skipped at the start of every record
MIN_REPLICATIONS = 30
MAX_ITER = 50
COST_TOL = 1e-12
GRAD_TOL = 1e-9


def lfilter(b, a, x):
    """``scipy.signal.lfilter``, imported on first use, not with emprank."""
    from scipy.signal import lfilter

    return lfilter(b, a, x)


@dataclass
class Dataset:
    """One simulated record: excitations r per excited node, outputs y per
    measured node, plus the generating pattern."""

    r: dict
    y: dict
    truth_emp: Emp

    @property
    def n_samples(self):
        return len(next(iter(self.y.values())))


def _forward(modules, r, n_samples, sensitivities=False):
    """Noise-free node signals of the chain driven by the excitations ``r``
    (node -> signal), in one pass down it: w[k+1] = G_k w[k] + r[k+1], from
    rest.  With ``sensitivities``, also s[k] = dw[k]/dtheta (module-major
    rows, p x N per node): s[k+1] = G_k s[k], filtered with w[k] in one call,
    except that the rows of module k are dG_{k,m} w[k], which for FIR tap m
    is w[k] delayed by m samples.  Index 0 of both is unused."""
    p = sum(m.n_params for m in modules) if sensitivities else 0
    z = np.zeros((len(modules) + 2, 1 + p, n_samples))
    for i, x in r.items():
        z[i, 0] = x
    hi = 1  # rows that G_k filters: w[k] and the rows of earlier modules
    for k, module in enumerate(modules, start=1):
        z[k + 1, :hi] += lfilter(*realize(module), z[k, :hi])
        if sensitivities:
            if module.family == FIR:
                for m in range(min(module.n_params, n_samples)):
                    z[k + 1, hi + m, m:] = z[k, 0, : n_samples - m]
            else:
                for m, d in enumerate(param_jacobian(module)):
                    z[k + 1, hi + m] = lfilter(*d, z[k, 0])
            hi += module.n_params
    return z[:, 0], z[:, 1:]


def simulate(net, emp, n_samples, seed=None):
    """Propagate white excitations down the cascade and add sensor noise.

    Node signals start at rest (zero initial conditions).  Excitations are
    drawn first for the excited nodes in ascending order, then the sensor
    noises in ascending order, all mutually independent Gaussians.
    """
    _check_nodes(emp.pattern, net.n)
    rng = np.random.default_rng(seed)
    r = {
        i: rng.normal(0.0, np.sqrt(emp.sigma2[i]), n_samples)
        for i in sorted(emp.excited)
    }
    e = {
        j: rng.normal(0.0, np.sqrt(emp.lam[j]), n_samples) if emp.lam[j] > 0 else np.zeros(n_samples)
        for j in sorted(emp.measured)
    }
    w, _ = _forward(net.modules, r, n_samples)
    y = {j: w[j] + e[j] for j in sorted(emp.measured)}
    return Dataset(r=r, y=y, truth_emp=emp)


def _flatten(modules):
    return np.concatenate([np.asarray(m.theta) for m in modules])


def _rebuild(structure, flat):
    out = []
    pos = 0
    for m in structure:
        out.append(ParamModule(m.family, tuple(flat[pos: pos + m.n_params])))
        pos += m.n_params
    return out


def _try_network(modules):
    """The network of the modules, or None when one of them is unstable."""
    try:
        return CascadeNetwork(modules)
    except UnstableFilterError:
        return None


def _residual_weights(data):
    # noise-free channels (lam == 0) keep unit weight instead of an
    # infinite one; their residuals vanish at the truth anyway
    emp = data.truth_emp
    return {
        j: 1.0 / np.sqrt(emp.lam[j]) if emp.lam[j] > 0 else 1.0
        for j in sorted(data.y)
    }


def _residuals(data, w):
    """Weighted residuals y_j - w_j of the measured nodes, past the transient."""
    return np.concatenate(
        [(data.y[j] - w[j])[TRANSIENT:] * c for j, c in _residual_weights(data).items()]
    )


def _linearize(data, net):
    """Stacked weighted residuals and their Jacobian w.r.t. all parameters."""
    w, s = _forward(net.modules, data.r, data.n_samples, sensitivities=True)
    jac = np.vstack([-s[j, :, TRANSIENT:].T * c for j, c in _residual_weights(data).items()])
    return _residuals(data, w), jac


@dataclass
class FitResult:
    theta: np.ndarray
    cost: float
    converged: bool
    n_iter: int
    status: str


def pem_fit(data, structure):
    """Damped Gauss-Newton prediction-error fit of the cascade modules.

    ``structure`` fixes the family and parameter count of each module, and
    its parameters are the starting point.  Steps are halved until the cost
    decreases, so the cost never increases along the iteration; candidates
    realizing an unstable module are rejected the same way.  Non-convergence
    within ``MAX_ITER`` steps is reported, not raised.
    """
    structure = list(structure)
    flat = _flatten(structure)
    net = _try_network(structure)
    if net is None:
        raise ValueError("initial parameters realize an unstable module")
    res, jac = _linearize(data, net)
    cost = float(res @ res)
    status = "max_iter"
    n_accepted = 0
    for _ in range(MAX_ITER):
        grad = 2.0 * (jac.T @ res)
        if np.max(np.abs(grad)) <= GRAD_TOL * max(1.0, cost):
            status = "gradient"
            break
        # lstsq, not solve: a zero-gain module leaves J^T J singular; take the minimum-norm step
        step, *_ = np.linalg.lstsq(jac.T @ jac, -0.5 * grad, rcond=None)
        alpha = 1.0
        accepted = False
        while alpha >= 2.0 ** -30:
            trial_flat = flat + alpha * step
            trial_net = _try_network(_rebuild(structure, trial_flat))
            if trial_net is not None:
                trial_res, trial_jac = _linearize(data, trial_net)
                trial_cost = float(trial_res @ trial_res)
                if trial_cost < cost:
                    flat = trial_flat
                    res, jac = trial_res, trial_jac
                    improvement = cost - trial_cost
                    cost = trial_cost
                    accepted = True
                    n_accepted += 1
                    break
            alpha *= 0.5
        if not accepted:
            status = "stalled"
            break
        if improvement <= COST_TOL * max(cost, 1.0):
            status = "cost"
            break
    converged = status in ("gradient", "cost") or (
        status == "stalled" and np.max(np.abs(2.0 * (jac.T @ res))) <= 1e-6 * max(1.0, cost)
    )
    return FitResult(
        theta=flat,
        cost=cost,
        converged=converged,
        n_iter=n_accepted,
        status=status,
    )


@dataclass
class CovarianceCheck:
    theoretical_trace: float
    empirical_trace: float
    rel_deviation: float
    n_failed: int
    reliable: bool
    scale_samples: int


def empirical_covariance(net, emp, n_samples, replications, seed=0):
    """Monte Carlo check of the theoretical covariance.

    Runs ``replications`` independent simulate/fit cycles initialized at the
    truth and compares the sample covariance trace of sqrt(N_eff) * (theta_hat
    - theta0), N_eff being the fitted sample count, with trace(P) from the
    information engine.  More than 5% failed fits marks the check unreliable.
    """
    if replications < MIN_REPLICATIONS:
        raise ValueError(f"need at least {MIN_REPLICATIONS} replications, got {replications}")
    if n_samples <= TRANSIENT:
        raise ValueError(f"need more than {TRANSIENT} samples (the transient cut), got {n_samples}")
    theory = criterion(information_matrix(net, emp), "trace")
    truth = _flatten(net.modules)
    n_eff = n_samples - TRANSIENT
    deviations = []
    failed = 0
    for rep in range(replications):
        data = simulate(net, emp, n_samples, seed=[seed, rep])
        fit = pem_fit(data, net.modules)
        if not fit.converged:
            failed += 1
            continue
        deviations.append(np.sqrt(n_eff) * (fit.theta - truth))
    dev = np.asarray(deviations)
    if dev.shape[0] < 2:
        empirical = float("nan")
    else:
        centered = dev - dev.mean(axis=0)
        sample_cov = centered.T @ centered / (dev.shape[0] - 1)
        empirical = float(np.trace(sample_cov))
    return CovarianceCheck(
        theoretical_trace=float(theory),
        empirical_trace=empirical,
        rel_deviation=abs(empirical - theory) / theory if np.isfinite(empirical) else float("inf"),
        n_failed=failed,
        reliable=bool(failed <= 0.05 * replications and np.isfinite(empirical)),
        scale_samples=n_eff,
    )
