"""Filter primitives: realization, impulse responses, jacobians."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from emprank import (
    ParamModule,
    StructureError,
    UnstableFilterError,
    param_jacobian,
    realize,
)
from emprank.cascade import _radius
from emprank.lti import STABILITY_MARGIN, impulse_response, module_responses, pole_radius, series
from emprank.montecarlo import sample_fir_butterworth, sample_first_order, sample_second_order
from conftest import filt, root_radius

MODULES = [
    ParamModule("fir", (0.5, -0.2, 0.1)),
    ParamModule("fir", (0.0, 0.4, -0.3)),  # zero first tap
    ParamModule("fir", (0.8,)),
    ParamModule("first_order", (0.3, 1.5)),
    ParamModule("second_order", (1.0, -0.5, 0.2, 0.08)),
    ParamModule("second_order", (0.0, 0.7, -0.4, 0.1)),  # t1 = 0
]


def _filters(module):
    return [realize(module), *param_jacobian(module)]


class TestFilterPairs:
    def test_monic_equal_length(self):
        for b, a in (f for module in MODULES for f in _filters(module)):
            assert b.dtype == a.dtype == float
            assert b.ndim == a.ndim == 1
            assert len(b) == len(a)
            assert a[0] == 1.0

    def test_zero_leading_coefficients_kept(self):
        b, a = realize(ParamModule("fir", (0.0, 0.4, -0.3)))
        np.testing.assert_array_equal(b, [0.0, 0.4, -0.3])
        np.testing.assert_array_equal(a, [1.0, 0.0, 0.0])
        b, a = realize(ParamModule("second_order", (0.0, 0.7, -0.4, 0.1)))
        np.testing.assert_array_equal(b, [0.0, 0.0, 0.7])
        np.testing.assert_array_equal(a, [1.0, -0.4, 0.1])

    def test_readonly_arrays(self):
        for b, a in (f for module in MODULES for f in _filters(module)):
            with pytest.raises(ValueError):
                b[0] = 2.0
            with pytest.raises(ValueError):
                a[0] = 2.0

    def test_response_matches_polynomial_ratio(self):
        # G(z) = (z + 2) / (z^2 + 0.5 z + 0.1) at z = 2
        module = ParamModule("second_order", (1.0, 2.0, 0.5, 0.1))
        b, a = realize(module)
        expected = (2 + 2) / (4 + 1 + 0.1)
        assert np.polyval(b, 2.0) / np.polyval(a, 2.0) == pytest.approx(expected, rel=1e-14)
        g, _ = module_responses(module, np.array([0.5]))
        assert g[0] == pytest.approx(expected, rel=1e-14)

    def test_delay_line_radius_zero(self):
        assert pole_radius(filt([1.0, -0.3], [1.0, 0.0])) == 0.0
        assert pole_radius(realize(ParamModule("fir", (0.5, -0.2, 0.1)))) == 0.0
        assert pole_radius(filt([1.0], [1.0, -0.5])) > 0.0

    def test_pole_radius(self):
        assert pole_radius(filt([1.0], [1.0, -0.9])) == pytest.approx(0.9, rel=1e-12)


class TestStability:
    def test_stable_inside_unit_circle(self):
        assert pole_radius(filt([1.0], [1.0, 0.5])) < STABILITY_MARGIN

    def test_unstable_outside(self):
        assert not pole_radius(filt([1.0], [1.0, -1.1])) < STABILITY_MARGIN

    def test_fir_always_stable(self):
        assert pole_radius(filt([5.0, 2.0, 1.0], [1.0, 0.0, 0.0])) < STABILITY_MARGIN


def _second_order(t3, t4):
    return ParamModule("second_order", (1.0, 0.3, t3, t4))


POLES = st.floats(-1.5, 1.5)


class TestClosedFormRadius:
    """The network's closed-form module pole radius against known poles and
    against ``np.roots`` of the module's denominator."""

    @settings(max_examples=200, deadline=None)
    @given(r=st.floats(1e-3, 1.5), phi=st.floats(0.01, np.pi - 0.01))
    def test_complex_pair(self, r, phi):
        assert abs(_radius(_second_order(-2 * r * np.cos(phi), r * r)) - r) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(p1=POLES, p2=POLES)
    def test_two_real_poles(self, p1, p2):
        assume(abs(p1 - p2) >= 0.01)  # zero and negative poles included
        assert abs(_radius(_second_order(-(p1 + p2), p1 * p2)) - max(abs(p1), abs(p2))) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(p=POLES, gap=st.floats(0.0, 0.01))
    def test_near_double_real_pole(self, p, gap):
        # the coefficients fix a double root only to about sqrt(eps)
        p2 = p + gap
        assert abs(_radius(_second_order(-(p + p2), p * p2)) - max(abs(p), abs(p2))) <= 1e-7

    @settings(max_examples=100, deadline=None)
    @given(a=POLES)
    def test_first_order(self, a):
        assert _radius(ParamModule("first_order", (a, 1.0))) == abs(a)

    def test_fir(self):
        assert _radius(ParamModule("fir", (0.5, -0.2, 0.1))) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), factor=st.sampled_from([1.0, 10.0, -10.0]))
    def test_stability_verdict_matches_roots(self, seed, factor):
        """Every sampler draw, also with one parameter scaled as a Monte Carlo
        perturbation does, gets the verdict of the roots of its denominator."""
        rng = np.random.default_rng(seed)
        for sampler in (sample_fir_butterworth, sample_first_order, sample_second_order):
            module = sampler(rng)
            for k in range(module.n_params):
                theta = list(module.theta)
                theta[k] *= factor
                m = ParamModule(module.family, theta)
                assert (_radius(m) < STABILITY_MARGIN) == (root_radius(m) < STABILITY_MARGIN)


class TestModuleResponses:
    @pytest.mark.parametrize(
        "module", MODULES + [ParamModule("first_order", (0.4, 0.0))], ids=repr
    )
    def test_rows_match_param_jacobian(self, module):
        """module_responses and param_jacobian each state the family's
        dG/dtheta; on an rfft grid the two agree row by row."""
        x = np.exp(-2j * np.pi * np.arange(33) / 64)

        def response(f):
            b, a = f
            return np.polyval(b[::-1], x) / np.polyval(a[::-1], x)

        g, rows = module_responses(module, x)
        ref = np.array([response(d) for d in param_jacobian(module)])
        assert rows.shape == ref.shape
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(rows - ref) <= 1e-12 * scale)
        g_ref = response(realize(module))
        assert np.all(np.abs(g - g_ref) <= 1e-12 * np.abs(g_ref).max())
        if module.family != "fir":  # Horner on theta takes np.polyval's steps
            np.testing.assert_array_equal(g, g_ref)


class TestSeries:
    def test_unit_is_identity(self):
        g = filt([1.0, -0.4], [1.0, 0.2])
        b, a = series(g, ([1.0], [1.0]))
        np.testing.assert_array_equal(b, g[0])
        np.testing.assert_array_equal(a, g[1])

    def test_square_of_first_order(self):
        g = filt([1.0], [1.0, -0.5])
        b, a = series(g, g)
        np.testing.assert_array_equal(b, [0.0, 0.0, 1.0])
        np.testing.assert_allclose(a, [1.0, -1.0, 0.25])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-1, 1), min_size=1, max_size=4),
        st.lists(st.floats(-1, 1), min_size=1, max_size=4),
    )
    def test_impulse_of_product_is_convolution(self, t1, t2):
        """Cascading two FIR filters convolves their impulse responses."""
        if not any(abs(x) > 1e-3 for x in t1):
            t1 = [1.0] + list(t1)
        if not any(abs(x) > 1e-3 for x in t2):
            t2 = [1.0] + list(t2)
        f = filt(t1, [1.0] + [0.0] * (len(t1) - 1))
        g = filt(t2, [1.0] + [0.0] * (len(t2) - 1))
        h, ok = impulse_response(series(f, g))
        assert ok
        ref = np.convolve(np.asarray(t1, float), np.asarray(t2, float))
        n = max(h.size, ref.size)
        h = np.pad(h, (0, n - h.size))
        ref = np.pad(ref, (0, n - ref.size))
        np.testing.assert_allclose(h, ref, atol=1e-10)


class TestImpulseResponse:
    def test_fir_is_exact(self):
        h, ok = impulse_response(filt([1.0, -0.3], [1.0, 0.0]))
        assert ok
        np.testing.assert_array_equal(h, [1.0, -0.3])

    def test_geometric_series(self):
        # 1/(q - 0.5): h = [0, 1, 0.5, 0.25, ...]
        h, ok = impulse_response(filt([1.0], [1.0, -0.5]))
        assert ok
        np.testing.assert_allclose(h[:4], [0.0, 1.0, 0.5, 0.25], rtol=1e-12)

    def test_truncation_length_slow_pole(self):
        # pole at 0.9, default tail 1e-12: |h[k]| = 0.9^(k-1) stays above
        # tolerance through index 263, giving 264 samples (recursion oracle)
        h, ok = impulse_response(filt([1.0], [1.0, -0.9]))
        assert ok
        assert h.size == 264
        assert abs(h[-1]) >= 1e-12

    def test_matches_direct_recursion(self):
        b = [0.5, 0.2]
        a = [1.0, -0.9, 0.4]
        h, ok = impulse_response(filt(b, a))
        assert ok
        # shift-operator form: pad the numerator by the relative degree
        bpad = [0.0] * (len(a) - len(b)) + b
        y = np.zeros(h.size)
        for k in range(h.size):
            acc = bpad[k] if k < len(bpad) else 0.0
            for i, ai in enumerate(a[1:], 1):
                if k - i >= 0:
                    acc -= ai * y[k - i]
            y[k] = acc
        np.testing.assert_allclose(h, y, atol=1e-12)

    def test_non_convergence_reported(self):
        h, ok = impulse_response(filt([1.0], [1.0, -0.9999]))
        assert not ok
        assert h.size == 4096

    def test_unstable_raises(self):
        with pytest.raises(UnstableFilterError):
            impulse_response(filt([1.0], [1.0, -1.5]))

    def test_zero_filter(self):
        h, ok = impulse_response(([0.0], [1.0]))
        assert ok
        np.testing.assert_array_equal(h, [0.0])


class TestParamModule:
    def test_fir_realization(self):
        b, a = realize(ParamModule("fir", (0.5, -0.2, 0.1)))
        np.testing.assert_array_equal(b, [0.5, -0.2, 0.1])
        np.testing.assert_array_equal(a, [1.0, 0.0, 0.0])

    def test_first_order_realization(self):
        # 1.5/(q + 0.3) = 1.5 q^-1 / (1 + 0.3 q^-1)
        b, a = realize(ParamModule("first_order", (0.3, 1.5)))
        np.testing.assert_array_equal(b, [0.0, 1.5])
        np.testing.assert_array_equal(a, [1.0, 0.3])

    def test_second_order_realization(self):
        b, a = realize(ParamModule("second_order", (1.0, -0.5, 0.2, 0.08)))
        np.testing.assert_array_equal(b, [0.0, 1.0, -0.5])
        np.testing.assert_array_equal(a, [1.0, 0.2, 0.08])

    def test_param_count_validation(self):
        with pytest.raises(ValueError):
            ParamModule("first_order", (0.3,))
        with pytest.raises(ValueError):
            ParamModule("second_order", (1.0, 2.0))
        with pytest.raises(ValueError):
            ParamModule("fir", ())

    def test_nan_rejected(self):
        with pytest.raises(StructureError):
            ParamModule("first_order", (np.nan, 1.0))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            ParamModule("biquad", (1.0,))


def _fd_jacobian(module, k, step=1e-6):
    """Central finite-difference impulse response derivative w.r.t. theta[k]."""
    up = list(module.theta)
    dn = list(module.theta)
    up[k] += step
    dn[k] -= step
    hu, _ = impulse_response(realize(ParamModule(module.family, tuple(up))))
    hd, _ = impulse_response(realize(ParamModule(module.family, tuple(dn))))
    n = max(hu.size, hd.size)
    hu = np.pad(hu, (0, n - hu.size))
    hd = np.pad(hd, (0, n - hd.size))
    return (hu - hd) / (2 * step)


class TestParamJacobian:
    def test_fir_gradients_are_delays(self):
        jac = param_jacobian(ParamModule("fir", (0.7, -0.1)))
        h0, _ = impulse_response(jac[0])
        h1, _ = impulse_response(jac[1])
        np.testing.assert_array_equal(h0, [1.0])
        np.testing.assert_array_equal(h1, [0.0, 1.0])

    @pytest.mark.parametrize(
        "module",
        [
            ParamModule("first_order", (0.4, 1.5)),
            ParamModule("first_order", (-0.7, 0.5)),
            ParamModule("second_order", (1.0, -0.4, 0.3, 0.4)),
            ParamModule("second_order", (0.5, 0.2, -1.0, 0.3)),
        ],
    )
    def test_matches_finite_differences(self, module):
        jac = param_jacobian(module)
        for k, d in enumerate(jac):
            h, ok = impulse_response(d)
            assert ok
            ref = _fd_jacobian(module, k)
            n = max(h.size, ref.size)
            h = np.pad(h, (0, n - h.size))
            ref = np.pad(ref, (0, n - ref.size))
            np.testing.assert_allclose(h, ref, atol=1e-6)

    def test_first_order_quotient_rule(self):
        # d/da [b/(q+a)] = -b/(q+a)^2 = -b q^-2 / (1 + a q^-1)^2
        b, a = param_jacobian(ParamModule("first_order", (0.4, 1.5)))[0]
        np.testing.assert_array_equal(b, [0.0, 0.0, -1.5])
        np.testing.assert_allclose(a, [1.0, 0.8, 0.16])
