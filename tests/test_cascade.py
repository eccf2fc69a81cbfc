"""Chain topology: path gains and the lower-triangular node response map."""

import numpy as np
import pytest

from emprank import (
    CascadeNetwork,
    ParamModule,
    UnstableFilterError,
    realize,
)
from emprank.lti import impulse_response, series
from conftest import random_network


def transfer_matrix(net):
    """Full node-to-node map as an n x n grid of filters (b, a): entry
    [j-1][i-1] carries node i into node j, the path gain on and below the
    diagonal and zero above it."""
    n = net.n
    return [
        [net.path_gain(i, j) if i <= j else ([0.0], [1.0]) for i in range(1, n + 1)]
        for j in range(1, n + 1)
    ]


def evaluate(f, z):
    """Response B/A of the filter f = (b, a) at z; with len(b) == len(a) the
    shift-form coefficients are also those of num(z)/den(z) in powers of z."""
    b, a = f
    return np.polyval(b, z) / np.polyval(a, z)


def test_node_count():
    net = CascadeNetwork([ParamModule("fir", (1.0,))] * 3)
    assert net.n == 4
    assert len(net.modules) == 3


def test_needs_at_least_one_module():
    with pytest.raises(ValueError):
        CascadeNetwork([])


def test_unstable_module_rejected():
    bad = ParamModule("first_order", (1.2, 1.0))
    with pytest.raises(UnstableFilterError, match="module 2"):
        CascadeNetwork([ParamModule("fir", (1.0,)), bad])


def test_identical_modules_flag():
    g = ParamModule("first_order", (0.2, 1.0))
    assert CascadeNetwork([g, g]).identical_modules
    h = ParamModule("first_order", (0.3, 1.0))
    assert not CascadeNetwork([g, h]).identical_modules


def test_module_tf_indexing():
    g1 = ParamModule("fir", (1.0, 0.5))
    g2 = ParamModule("first_order", (0.4, 2.0))
    net = CascadeNetwork([g1, g2])
    b, a = realize(net.modules[0])
    np.testing.assert_allclose(b, [1.0, 0.5])
    np.testing.assert_allclose(a, [1.0, 0.0])
    b, a = realize(net.modules[1])
    np.testing.assert_allclose(b, [0.0, 2.0])
    np.testing.assert_allclose(a, [1.0, 0.4])


class TestPathGain:
    def test_self_path_is_unit(self, rng):
        net = random_network(rng, 4)
        b, a = net.path_gain(2, 2)
        np.testing.assert_array_equal(b, [1.0])
        np.testing.assert_array_equal(a, [1.0])

    def test_adjacent_path_is_module(self, rng):
        net = random_network(rng, 4)
        b, a = net.path_gain(2, 3)
        ref_b, ref_a = realize(net.modules[1])
        np.testing.assert_array_equal(b, ref_b)
        np.testing.assert_array_equal(a, ref_a)

    def test_triple_product(self, rng):
        net = random_network(rng, 4)
        g = [realize(m) for m in net.modules]
        ref = series(series(g[0], g[1]), g[2])
        got = net.path_gain(1, 4)
        h_ref, _ = impulse_response(ref)
        h_got, _ = impulse_response(got)
        n = max(h_ref.size, h_got.size)
        np.testing.assert_allclose(
            np.pad(h_got, (0, n - h_got.size)),
            np.pad(h_ref, (0, n - h_ref.size)),
            atol=1e-10,
        )

    def test_backward_path_rejected(self, rng):
        net = random_network(rng, 3)
        with pytest.raises(ValueError):
            net.path_gain(3, 1)

    def test_out_of_range(self, rng):
        net = random_network(rng, 3)
        with pytest.raises(ValueError):
            net.path_gain(0, 2)
        with pytest.raises(ValueError):
            net.path_gain(1, 4)


class TestTransferMatrix:
    def test_two_nodes(self):
        net = CascadeNetwork([ParamModule("fir", (0.5, 0.1))])
        t = transfer_matrix(net)
        np.testing.assert_array_equal(t[0][0][0], [1.0])
        np.testing.assert_array_equal(t[1][0][0], [0.5, 0.1])
        h, _ = impulse_response(t[0][1])
        np.testing.assert_array_equal(h, [0.0])

    def test_frequency_domain_identity(self, rng):
        """(I - G(z)) T(z) = I pointwise, with G the subdiagonal module matrix.

        The node response map is the inverse of (I - G); checking the product
        at a few frequencies validates the structural product construction
        without ever forming a matrix inverse.
        """
        net = random_network(rng, 4)
        t = transfer_matrix(net)
        for w in (0.0, np.pi / 4, np.pi):
            z = np.exp(1j * w)
            tz = np.array([[evaluate(t[r][c], z) for c in range(4)] for r in range(4)])
            gz = np.zeros((4, 4), dtype=complex)
            for k, m in enumerate(net.modules):
                gz[k + 1, k] = evaluate(realize(m), z)
            np.testing.assert_allclose((np.eye(4) - gz) @ tz, np.eye(4), atol=1e-10)

    def test_matches_path_gains(self, rng):
        net = random_network(rng, 5)
        t = transfer_matrix(net)
        for j in range(1, 6):
            for i in range(1, j + 1):
                for got, want in zip(t[j - 1][i - 1], net.path_gain(i, j)):
                    np.testing.assert_array_equal(got, want)


def test_path_gain_read_only(rng):
    net = random_network(rng, 6)
    for coefficients in net.path_gain(1, 6):
        with pytest.raises(ValueError):
            coefficients[0] = 2.0


@pytest.mark.parametrize("family", ["first_order", "second_order", "fir"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_pair_grams_zero_outside_their_modules(rng, family, n):
    net = random_network(rng, n, family)
    table = net.pair_grams
    slices = net.param_slices
    for i, j, gram in zip(table.src, table.dst, table.grams):
        inside = np.zeros(gram.shape[0], dtype=bool)
        for s in slices[i - 1: j - 1]:  # modules i..j-1
            inside[s] = True
        assert np.all(gram[~inside] == 0.0)
        assert np.all(gram[:, ~inside] == 0.0)
        assert np.all(np.diag(gram)[inside] > 0.0)
        assert np.array_equal(gram, gram.T)
