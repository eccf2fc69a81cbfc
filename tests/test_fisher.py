"""Information engine: gradient stacks, white-noise grams, M and P.

Expected values marked "hand-derived" come from closed-form sums of
geometric series.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from emprank import (
    CascadeNetwork,
    Emp,
    NonInformativeError,
    ParamModule,
    VarianceProfile,
    criterion,
    information_matrix,
    rank_emps,
)
from emprank.fisher import gradient_stack, information_batch
from emprank.lti import impulse_response
from conftest import drawn_chain, drawn_chains, filt, identical_network, random_network, reference

UNIT = filt([1.0], [1.0])


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
        stops = [s.stop for s in net.param_slices]
        starts = [s.start for s in net.param_slices]
        assert starts[0] == 0
        assert stops[-1] == res.M.shape[0] == 16
        assert starts[1:] == stops[:-1]

    def test_symmetry_and_positive_semidefinite(self, rng):
        net = random_network(rng, 5)
        res = information_matrix(net, emp_of((frozenset({1, 3}), frozenset({2, 4, 5}))))
        np.testing.assert_array_equal(res.M, res.M.T)
        assert np.linalg.eigvalsh(res.M).min() > -1e-10

    def test_node_beyond_network_rejected(self):
        net = CascadeNetwork([ParamModule("fir", (1.0,)), ParamModule("fir", (0.5,))])
        with pytest.raises(ValueError, match="node 5 beyond the 3-node cascade"):
            information_matrix(net, Emp.uniform({1}, {2, 5}))

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
        return np.linalg.inv(sigma2 / lam * reference(net.modules[:1]).grams[1, 2])

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
        got = res.P[net.param_slices[0], net.param_slices[0]]
        np.testing.assert_allclose(got, want, rtol=1e-8)

    def test_extra_excitation_downstream_preserves_block(self, rng):
        net = identical_network(rng, 4)
        emp = emp_of((frozenset({1, 3}), frozenset({2, 3, 4})), 1.0, 0.01)
        res = information_matrix(net, emp)
        want = self.a_inverse(net, 1.0, 0.01)
        got = res.P[net.param_slices[0], net.param_slices[0]]
        np.testing.assert_allclose(got, want, rtol=1e-8)

    def test_excitation_at_node_two_improves_block(self, rng):
        net = identical_network(rng, 4)
        emp = emp_of((frozenset({1, 2}), frozenset({2, 3, 4})), 1.0, 0.01)
        res = information_matrix(net, emp)
        want = self.a_inverse(net, 1.0, 0.01)
        got = res.P[net.param_slices[0], net.param_slices[0]]
        assert np.trace(got) < np.trace(want) * (1 - 1e-6)


class TestScaledCholesky:
    """Verdicts come from the Jacobi-scaled S = DMD, D = diag(M)^-1/2."""

    @pytest.mark.parametrize("law, run", [("equal", 5), ("random", 4)])
    def test_ill_scaled_chains_rank_fully(self, law, run):
        # n=10 chains whose raw eigenvalue ratios fall below 1e-10 on 192 and
        # 96 patterns although every minimal pattern identifies the chain
        net, profile = drawn_chain(10, "first_order", law, run)
        ranking = rank_emps(net, profile)
        assert ranking.non_informative == []
        assert len(ranking.entries) == 256

    @pytest.mark.parametrize("family, n", [("first_order", 5), ("second_order", 4), ("fir", 4)])
    def test_matches_dense_inverse_of_scaled_matrix(self, rng, family, n):
        net = random_network(rng, n, family)
        results = information_batch(net, *VarianceProfile(1.0, 0.01).minimal_variances(n))
        for res in results:
            d = 1.0 / np.sqrt(np.diag(res.M))
            S = res.M * np.outer(d, d)
            S_inv = np.linalg.inv(S)
            sign, logdet_S = np.linalg.slogdet(S)
            assert sign > 0
            # entrywise in the scaled coordinates, where S^-1 has no units
            np.testing.assert_allclose(res.P / np.outer(d, d), S_inv, rtol=0, atol=1e-10 * np.abs(S_inv).max())
            assert res.criteria["trace"] == pytest.approx(np.trace(S_inv * np.outer(d, d)), rel=1e-12)
            assert res.criteria["logdet"] == pytest.approx(2.0 * np.log(d).sum() - logdet_S, rel=1e-12, abs=1e-12)
            want = 1.0 / (np.linalg.norm(S, 1) * np.linalg.norm(S_inv, 1))
            assert res.rcond == pytest.approx(want, rel=1e-10)

    def test_failed_factorization_sets_aside_only_its_pattern(self):
        # Grams that give the first pattern of a 3-node chain an indefinite M
        # with a positive diagonal, so the stacked Cholesky fails on it alone
        net = CascadeNetwork([ParamModule("fir", (0.5,)), ParamModule("fir", (0.7,))])
        grams = np.stack([[[1.0, 2.0], [2.0, 1.0]], np.zeros((2, 2)), np.eye(2)])  # pairs (1,2), (1,3), (2,3)
        net.pair_grams = dataclasses.replace(net.pair_grams, grams=grams)
        sigma2, lam = VarianceProfile().minimal_variances(3)
        bad, good = information_batch(net, sigma2, lam)
        assert not bad.informative and bad.rcond == 0.0
        alone = information_batch(net, sigma2[1:], lam[1:])[0]
        np.testing.assert_array_equal(good.P, np.eye(2))
        np.testing.assert_array_equal(good.P, alone.P)
        assert good.rcond == alone.rcond == 1.0

    @settings(max_examples=25, deadline=None)
    @given(drawn_chains(), st.lists(st.integers(-40, 40), min_size=1, max_size=8))
    @example(drawn_chain(10, "first_order", "equal", 5), [-30, 17, 0, 40, -3])  # an ill-scaled chain
    def test_verdicts_do_not_depend_on_parameter_units(self, chain, powers):
        # theta -> theta / t with t a power of two per parameter maps every
        # Gram to T G T exactly, so M to T M T and P to T^-1 P T^-1
        net, profile = chain
        grams = net.pair_grams
        t = 2.0 ** np.resize(powers, grams.grams.shape[1])
        scaled = CascadeNetwork(net.modules)
        scaled.pair_grams = dataclasses.replace(grams, grams=grams.grams * np.outer(t, t))
        variances = profile.minimal_variances(net.n)
        for res, got in zip(information_batch(net, *variances), information_batch(scaled, *variances)):
            assert got.informative == res.informative
            assert got.rcond == res.rcond
            if res.informative:
                np.testing.assert_array_equal(got.P, res.P / np.outer(t, t))
