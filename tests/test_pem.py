"""Simulation, prediction-error fitting, empirical covariance checks."""

import numpy as np
import pytest
from scipy.signal import lfilter

from emprank import (
    CascadeNetwork,
    Emp,
    ParamModule,
    empirical_covariance,
    pem_fit,
    realize,
    simulate,
)
from emprank.fisher import gradient_stack
from emprank.pem import TRANSIENT, _forward, _linearize, _residuals, _try_network


def prediction_cost(data, modules):
    """Weighted prediction-error cost sum_j sum_t (y_j - yhat_j)^2 / lambda_j
    past the transient; infinite for an unstable candidate."""
    if _try_network(modules) is None:
        return np.inf
    res = _residuals(data, _forward(modules, data.r, data.n_samples)[0])
    return float(res @ res)


def prediction_cost_gradient(data, modules):
    """Gradient of prediction_cost from the fit's analytic Jacobian."""
    net = _try_network(modules)
    if net is None:
        raise ValueError("gradient undefined for an unstable candidate")
    res, jac = _linearize(data, net)
    return 2.0 * (jac.T @ res)


def two_node_fir():
    return CascadeNetwork([ParamModule("fir", (0.8, -0.25, 0.1))])


def three_node_fo():
    return CascadeNetwork(
        [ParamModule("first_order", (-0.4, 1.2)), ParamModule("first_order", (0.3, 0.7))]
    )


def mixed_four_node():
    return CascadeNetwork(
        [
            ParamModule("first_order", (0.5, 1.0)),
            ParamModule("second_order", (1.0, 0.4, -0.5, 0.2)),
            ParamModule("fir", (0.7, -0.3, 0.1)),
        ]
    )


LINEARIZE_CASES = {
    "fir2": (two_node_fir, Emp.uniform({1}, {2}, 1.0, 0.1)),
    "first3": (three_node_fo, Emp.uniform({1}, {2, 3}, 1.0, 0.1)),
    "first3-two-excited": (three_node_fo, Emp.uniform({1, 2}, {3}, 1.0, 0.1)),
    "mixed4": (mixed_four_node, Emp.uniform({1, 2}, {3, 4}, 1.0, 0.1)),
}


class TestSimulate:
    def test_reproducible(self):
        net = three_node_fo()
        emp = Emp.uniform({1}, {2, 3}, 1.0, 0.1)
        a = simulate(net, emp, 200, seed=5)
        b = simulate(net, emp, 200, seed=5)
        np.testing.assert_array_equal(a.r[1], b.r[1])
        np.testing.assert_array_equal(a.y[3], b.y[3])
        assert a.n_samples == 200

    def test_cascade_recursion(self):
        net = three_node_fo()
        emp = Emp(frozenset({1, 3}), frozenset({2, 3}), {1: 1.0, 3: 2.0}, {2: 0.0, 3: 0.0})
        data = simulate(net, emp, 300, seed=1)
        w2 = lfilter(*realize(net.modules[0]), data.r[1])
        w3 = lfilter(*realize(net.modules[1]), w2) + data.r[3]
        np.testing.assert_allclose(data.y[2], w2, atol=1e-12)
        np.testing.assert_allclose(data.y[3], w3, atol=1e-12)

    def test_sensor_noise_variance(self):
        net = two_node_fir()
        lam = 0.2
        quiet = Emp(frozenset({1}), frozenset({2}), {1: 1.0}, {2: 0.0})
        noisy = Emp(frozenset({1}), frozenset({2}), {1: 1.0}, {2: lam})
        n = 200_000
        a = simulate(net, quiet, n, seed=9)
        b = simulate(net, noisy, n, seed=9)
        np.testing.assert_array_equal(a.r[1], b.r[1])
        noise = b.y[2] - a.y[2]
        assert np.var(noise) == pytest.approx(lam, rel=0.02)
        assert abs(np.mean(noise)) < 0.01


class TestPredictionCost:
    def test_zero_at_truth_without_noise(self):
        net = three_node_fo()
        emp = Emp(frozenset({1}), frozenset({2, 3}), {1: 1.0}, {2: 0.0, 3: 0.0})
        data = simulate(net, emp, 500, seed=2)
        assert prediction_cost(data, net.modules) == pytest.approx(0.0, abs=1e-18)

    def test_truth_beats_offset(self):
        net = two_node_fir()
        emp = Emp.uniform({1}, {2}, 1.0, 0.05)
        data = simulate(net, emp, 800, seed=3)
        off = [ParamModule("fir", (0.9, -0.25, 0.1))]
        assert prediction_cost(data, net.modules) < prediction_cost(data, off)

    def test_weighted_residuals_near_unit_variance(self):
        net = two_node_fir()
        emp = Emp.uniform({1}, {2}, 1.0, 0.3)
        n = 50_000
        data = simulate(net, emp, n, seed=4)
        cost = prediction_cost(data, net.modules)
        assert cost / (n - TRANSIENT) == pytest.approx(1.0, rel=0.03)

    def test_unstable_candidate_is_infinite(self):
        net = two_node_fir()
        data = simulate(net, Emp.uniform({1}, {2}, 1.0, 0.1), 300, seed=5)
        bad = [ParamModule("first_order", (1.2, 1.0))]
        assert prediction_cost(data, bad) == np.inf

    def test_gradient_matches_finite_differences(self):
        net = three_node_fo()
        emp = Emp.uniform({1, 2}, {3}, 1.0, 0.1)
        data = simulate(net, emp, 400, seed=6)
        theta0 = np.concatenate([m.theta for m in net.modules])
        grad = prediction_cost_gradient(data, net.modules)
        step = 1e-6
        fd = np.empty_like(theta0)
        for m in range(theta0.size):
            up, dn = theta0.copy(), theta0.copy()
            up[m] += step
            dn[m] -= step

            def rebuild(flat):
                return [
                    ParamModule("first_order", tuple(flat[2 * k : 2 * k + 2]))
                    for k in range(2)
                ]

            fd[m] = (
                prediction_cost(data, rebuild(up)) - prediction_cost(data, rebuild(dn))
            ) / (2 * step)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-5)

    def test_gradient_rejects_unstable(self):
        net = two_node_fir()
        data = simulate(net, Emp.uniform({1}, {2}, 1.0, 0.1), 300, seed=7)
        with pytest.raises(ValueError, match="unstable"):
            prediction_cost_gradient(data, [ParamModule("first_order", (1.5, 1.0))])


class TestLinearize:
    @pytest.mark.parametrize("case", sorted(LINEARIZE_CASES))
    def test_matches_path_and_gradient_stack_filters(self, case):
        """The forward pass against the time-domain reference: predictions
        from the path gains and Jacobian columns from the gradient stack
        filters, each applied to the excitations with lfilter."""
        build, emp = LINEARIZE_CASES[case]
        net = build()
        data = simulate(net, emp, 600, seed=13)
        res, jac = _linearize(data, net)
        offsets = np.cumsum([0] + [m.n_params for m in net.modules])
        ref_res, ref_jac = [], []
        for j in sorted(data.y):
            yhat = np.zeros(data.n_samples)
            psi = np.zeros((data.n_samples, offsets[-1]))
            for i in sorted(r for r in data.r if r <= j):
                yhat += lfilter(*net.path_gain(i, j), data.r[i])
                for k, filters in gradient_stack(net, i, j).items():
                    for m, f in enumerate(filters):
                        psi[:, offsets[k - 1] + m] += lfilter(*f, data.r[i])
            weight = 1.0 / np.sqrt(emp.lam[j])
            ref_res.append((data.y[j] - yhat)[TRANSIENT:] * weight)
            ref_jac.append(-psi[TRANSIENT:] * weight)
        ref_res, ref_jac = np.concatenate(ref_res), np.vstack(ref_jac)
        assert jac.shape == ref_jac.shape
        np.testing.assert_allclose(jac, ref_jac, rtol=1e-12, atol=1e-12 * np.abs(ref_jac).max())
        np.testing.assert_allclose(res, ref_res, rtol=1e-12, atol=1e-12 * np.abs(ref_res).max())


class TestPemFit:
    def test_noiseless_recovery_fir(self):
        net = two_node_fir()
        emp = Emp(frozenset({1}), frozenset({2}), {1: 1.0}, {2: 0.0})
        data = simulate(net, emp, 600, seed=8)
        fit = pem_fit(data, [ParamModule("fir", (0.5, 0.0, 0.0))])
        assert fit.converged
        np.testing.assert_allclose(fit.theta, (0.8, -0.25, 0.1), atol=1e-8)

    def test_fir_linear_problem_takes_one_step(self):
        net = two_node_fir()
        data = simulate(net, Emp.uniform({1}, {2}, 1.0, 0.05), 1000, seed=9)
        fit = pem_fit(data, [ParamModule("fir", (0.7, -0.2, 0.05))])
        assert fit.status == "gradient"
        assert fit.n_iter == 1

    def test_noiseless_recovery_first_order(self):
        net = three_node_fo()
        emp = Emp(frozenset({1, 2}), frozenset({3}), {1: 1.0, 2: 1.0}, {3: 0.0})
        data = simulate(net, emp, 800, seed=10)
        init = [ParamModule("first_order", (-0.3, 1.0)), ParamModule("first_order", (0.2, 0.9))]
        fit = pem_fit(data, init)
        assert fit.converged
        np.testing.assert_allclose(fit.theta, (-0.4, 1.2, 0.3, 0.7), atol=1e-6)

    def test_unstable_init_rejected(self):
        net = three_node_fo()
        data = simulate(net, Emp.uniform({1}, {2, 3}, 1.0, 0.1), 200, seed=12)
        with pytest.raises(ValueError, match="unstable"):
            pem_fit(data, [ParamModule("first_order", (1.4, 1.0)), ParamModule("first_order", (0.3, 0.7))])


class TestEmpiricalCovariance:
    def test_replication_floor(self):
        net = two_node_fir()
        with pytest.raises(ValueError, match="replications"):
            empirical_covariance(net, Emp.uniform({1}, {2}, 1.0, 0.1), 500, 10)

    def test_sample_floor(self):
        # records no longer than the transient cut leave nothing to fit
        net, emp = two_node_fir(), Emp.uniform({1}, {2}, 1.0, 0.1)
        for n_samples in (40, TRANSIENT):
            with pytest.raises(ValueError, match=f"more than {TRANSIENT} samples"):
                empirical_covariance(net, emp, n_samples, 30)
        assert empirical_covariance(net, emp, TRANSIENT + 1, 30).scale_samples == 1

    def test_two_node_fir_agrees_with_theory(self):
        net = two_node_fir()
        emp = Emp.uniform({1}, {2}, 1.0, 0.1)
        check = empirical_covariance(net, emp, n_samples=1500, replications=60, seed=21)
        assert check.reliable
        assert check.n_failed == 0
        assert check.scale_samples == 1450
        # 60 replications put the sampling noise of the trace around 15%
        assert check.rel_deviation < 0.35
