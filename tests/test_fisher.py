"""Information engine: gradient stacks, white-noise grams, M and P.

Expected values marked "hand-derived" come from closed-form sums of
geometric series; the scattered assembly is additionally cross-checked
against a time-domain Monte Carlo estimate at desk scale.
"""

import numpy as np
import pytest
from scipy.signal import lfilter

from emprank import (
    CascadeNetwork,
    Emp,
    NonInformativeError,
    ParamModule,
    criterion,
    information_matrix,
)
from emprank.fisher import gradient_stack
from conftest import filt, identical_network, random_network, white_correlation

UNIT = filt([1.0], [1.0])


def delays(*lags):
    return [filt([1.0], [1.0] + [0.0] * k) for k in lags]


class TestWhiteCorrelation:
    def test_orthogonal_delays(self):
        c = white_correlation(delays(0, 1), delays(0, 1), 1.0)
        np.testing.assert_allclose(c, np.eye(2), atol=1e-14)

    def test_fir_energy(self):
        f = [filt([1.0, -0.3], [1.0, 0.0])]
        c = white_correlation(f, f, 1.0)
        assert c[0, 0] == pytest.approx(1.09, rel=1e-12)

    def test_geometric_energy(self):
        # 1/(q-0.5) has energy sum 0.25^k = 4/3
        f = [filt([1.0], [1.0, -0.5])]
        c = white_correlation(f, f, 1.0)
        assert c[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-10)

    def test_variance_scaling(self):
        f = [UNIT]
        c = white_correlation(f, f, 2.5)
        assert c[0, 0] == pytest.approx(2.5, rel=1e-14)

    def test_cross_correlation_by_simulation(self, rng):
        """Time-domain oracle: covariance of two filtered white noises."""
        a = filt([1.0], [1.0, -0.6])
        b = filt([0.5, 0.2], [1.0, 0.3, 0.0])
        c = white_correlation([a], [b], 1.0)
        n = 400_000
        e = rng.normal(0, 1.0, n)
        xa = lfilter(*a, e)
        xb = lfilter(*b, e)
        est = float(np.mean(xa[200:] * xb[200:]))
        assert c[0, 0] == pytest.approx(est, abs=0.01)


class TestGradientStack:
    def test_empty_when_source_not_before_sink(self, rng):
        net = random_network(rng, 4)
        assert gradient_stack(net, 3, 3) == {}
        assert gradient_stack(net, 3, 2) == {}

    def test_adjacent_pair_is_module_jacobian(self):
        net = CascadeNetwork([ParamModule("fir", (0.7, -0.1))] * 2)
        st = gradient_stack(net, 1, 2)
        assert set(st) == {1}
        h0, _ = white_correlation(list(st[1]), delays(0, 1), 1.0)
        np.testing.assert_allclose(h0, [1.0, 0.0], atol=1e-14)

    def test_span_covers_path_modules(self, rng):
        net = random_network(rng, 5)
        st = gradient_stack(net, 2, 5)
        assert set(st) == {2, 3, 4}

    def test_scalar_fir_entries(self):
        # single-tap modules g, h: pair (1,3) entries are the opposite
        # tap at lag zero
        net = CascadeNetwork(
            [ParamModule("fir", (0.8,)), ParamModule("fir", (-1.2,))]
        )
        st = gradient_stack(net, 1, 3)
        probe = [UNIT]
        e1 = white_correlation(list(st[1]), probe, 1.0)
        e2 = white_correlation(list(st[2]), probe, 1.0)
        assert e1[0, 0] == pytest.approx(-1.2)
        assert e2[0, 0] == pytest.approx(0.8)


def emp_of(pattern, sigma2=1.0, lam=1.0):
    return Emp.uniform(pattern[0], pattern[1], sigma2, lam)


class TestInformationMatrix:
    def test_two_node_single_tap(self):
        net = CascadeNetwork([ParamModule("fir", (0.9,))])
        res = information_matrix(net, emp_of((frozenset({1}), frozenset({2}))))
        np.testing.assert_allclose(res.M, [[1.0]], atol=1e-14)
        np.testing.assert_allclose(res.P, [[1.0]], atol=1e-12)

    def test_two_node_first_order_closed_form(self):
        # hand-derived: weight 4, poles at -0.4
        # M = 4 * [[b^2 (1+a^2)/(1-a^2)^3, a b/(1-a^2)^2], [., 1/(1-a^2)]]
        net = CascadeNetwork([ParamModule("first_order", (0.4, 1.5))])
        emp = Emp(frozenset({1}), frozenset({2}), {1: 2.0}, {2: 0.5})
        res = information_matrix(net, emp)
        want = np.array(
            [[17.61418853479853, 3.4013605442176873], [3.4013605442176873, 4.761904761904762]]
        )
        np.testing.assert_allclose(res.M, want, rtol=1e-9)

    def test_three_node_scalar_fir_end_excited(self):
        # taps 0.8 and -1.2, sigma2=1, lam=0.25 everywhere (hand-derived)
        net = CascadeNetwork([ParamModule("fir", (0.8,)), ParamModule("fir", (-1.2,))])
        emp = emp_of((frozenset({1}), frozenset({2, 3})), 1.0, 0.25)
        res = information_matrix(net, emp)
        np.testing.assert_allclose(res.M, [[9.76, -3.84], [-3.84, 2.56]], rtol=1e-12)
        assert res.criteria["trace"] == pytest.approx(1.203125, rel=1e-10)

    def test_three_node_scalar_fir_end_measured(self):
        net = CascadeNetwork([ParamModule("fir", (0.8,)), ParamModule("fir", (-1.2,))])
        emp = emp_of((frozenset({1, 2}), frozenset({3})), 1.0, 0.25)
        res = information_matrix(net, emp)
        np.testing.assert_allclose(res.M, [[5.76, -3.84], [-3.84, 6.56]], rtol=1e-12)
        assert res.criteria["trace"] == pytest.approx(77.0 / 144.0, rel=1e-10)

    def test_block_traces_sum_to_trace(self, rng):
        net = random_network(rng, 4)
        res = information_matrix(net, emp_of((frozenset({1, 2}), frozenset({3, 4}))))
        assert sum(res.traces) == pytest.approx(res.criteria["trace"], rel=1e-12)

    def test_param_slices_partition(self, rng):
        net = random_network(rng, 5, family="second_order")
        res = information_matrix(net, emp_of((frozenset({1, 2}), frozenset({3, 4, 5}))))
        stops = [s.stop for s in res.param_slices]
        starts = [s.start for s in res.param_slices]
        assert starts[0] == 0
        assert stops[-1] == res.M.shape[0] == 16
        assert starts[1:] == stops[:-1]

    def test_symmetry_and_positive_semidefinite(self, rng):
        net = random_network(rng, 5)
        res = information_matrix(net, emp_of((frozenset({1, 3}), frozenset({2, 4, 5}))))
        np.testing.assert_array_equal(res.M, res.M.T)
        assert np.linalg.eigvalsh(res.M).min() > -1e-10

    def test_zero_noise_rejected(self):
        net = CascadeNetwork([ParamModule("fir", (1.0,))])
        emp = Emp(frozenset({1}), frozenset({2}), {1: 1.0}, {2: 0.0})
        with pytest.raises(ValueError, match="noise"):
            information_matrix(net, emp)

    def test_zero_noise_before_first_excitation_carries_nothing(self):
        # the noiseless sensor at node 2 sees no excitation, so it adds no
        # information instead of a 0/0 weight
        net = CascadeNetwork([ParamModule("fir", (1.0,)), ParamModule("fir", (0.5,)), ParamModule("fir", (0.8,))])
        res = information_matrix(net, Emp(frozenset({3}), frozenset({2, 4}), {3: 1.0}, {2: 0.0, 4: 1.0}))
        quiet = information_matrix(net, Emp(frozenset({3}), frozenset({4}), {3: 1.0}, {4: 1.0}))
        np.testing.assert_array_equal(res.M, quiet.M)
        assert not res.informative

    def test_non_informative_flagged(self):
        # a zero middle module blocks all information flow to the sink
        net = CascadeNetwork(
            [ParamModule("fir", (1.0,)), ParamModule("fir", (0.0,)), ParamModule("fir", (1.0,))]
        )
        emp = emp_of((frozenset({1}), frozenset({2, 3, 4})))
        res = information_matrix(net, emp)
        assert not res.informative
        assert res.P is None
        with pytest.raises(NonInformativeError):
            criterion(res, "trace")

    def test_overflowing_gains_non_informative(self):
        # M overflows float64: set aside like any singular M, no warning, no LinAlgError
        net = CascadeNetwork([ParamModule("first_order", (0.5, 1e160)), ParamModule("fir", (1.0,))])
        res = information_matrix(net, emp_of((frozenset({1}), frozenset({2, 3}))))
        assert not res.informative
        assert res.rcond == 0.0

    def test_monte_carlo_cross_check(self, rng):
        """Desk-scale empirical estimate of M on a 3-node network."""
        net = CascadeNetwork(
            [ParamModule("first_order", (-0.5, 1.0)), ParamModule("first_order", (0.3, 0.8))]
        )
        emp = emp_of((frozenset({1, 2}), frozenset({3})), 1.0, 0.04)
        res = information_matrix(net, emp)
        n = 300_000
        psi = np.zeros((4, n))
        offs = {1: 0, 2: 2}
        for i in sorted(emp.excited):
            r = rng.normal(0, 1.0, n)
            st = gradient_stack(net, i, 3)
            for k, filters in st.items():
                for m, f in enumerate(filters):
                    psi[offs[k] + m] += lfilter(*f, r)
        est = psi[:, 500:] @ psi[:, 500:].T / (n - 500) / emp.lam[3]
        scale = np.abs(res.M).max()
        np.testing.assert_allclose(est, res.M, atol=0.03 * scale)


class TestCriterion:
    def test_logdet_matches_slogdet(self, rng):
        net = random_network(rng, 4)
        res = information_matrix(net, emp_of((frozenset({1, 2}), frozenset({3, 4}))))
        sign, logdet = np.linalg.slogdet(res.P)
        assert sign > 0
        assert criterion(res, "logdet") == pytest.approx(logdet, rel=1e-9)

    def test_trace_matches_inverse(self, rng):
        net = random_network(rng, 4)
        res = information_matrix(net, emp_of((frozenset({1, 3}), frozenset({2, 4}))))
        assert criterion(res, "trace") == pytest.approx(
            np.trace(np.linalg.inv(res.M)), rel=1e-8
        )

    def test_unknown_kind(self, rng):
        net = random_network(rng, 3)
        res = information_matrix(net, emp_of((frozenset({1}), frozenset({2, 3}))))
        with pytest.raises(ValueError):
            criterion(res, "a-opt")


class TestSharedFirstModuleBlock:
    """With the first two modules identical and node 2 measured, the leading
    covariance block is pinned regardless of what happens downstream."""

    def a_inverse(self, net, sigma2, lam):
        from emprank import param_jacobian

        jac = list(param_jacobian(net.modules[0]))
        a = white_correlation(jac, jac, sigma2 / lam)
        return np.linalg.inv(a)

    @pytest.mark.parametrize(
        "pattern",
        [
            (frozenset({1}), frozenset({2, 3, 4})),
            (frozenset({1, 3}), frozenset({2, 4})),
        ],
    )
    def test_minimal_patterns(self, rng, pattern):
        net = identical_network(rng, 4)
        res = information_matrix(net, emp_of(pattern, 1.0, 0.01))
        want = self.a_inverse(net, 1.0, 0.01)
        got = res.P[res.param_slices[0], res.param_slices[0]]
        np.testing.assert_allclose(got, want, rtol=1e-8)

    def test_extra_excitation_downstream_preserves_block(self, rng):
        net = identical_network(rng, 4)
        emp = emp_of((frozenset({1, 3}), frozenset({2, 3, 4})), 1.0, 0.01)
        res = information_matrix(net, emp)
        want = self.a_inverse(net, 1.0, 0.01)
        got = res.P[res.param_slices[0], res.param_slices[0]]
        np.testing.assert_allclose(got, want, rtol=1e-8)

    def test_excitation_at_node_two_improves_block(self, rng):
        net = identical_network(rng, 4)
        emp = emp_of((frozenset({1, 2}), frozenset({2, 3, 4})), 1.0, 0.01)
        res = information_matrix(net, emp)
        want = self.a_inverse(net, 1.0, 0.01)
        got = res.P[res.param_slices[0], res.param_slices[0]]
        assert np.trace(got) < np.trace(want) * (1 - 1e-6)
