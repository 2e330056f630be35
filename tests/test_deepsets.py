"""Tests for equivariant set layers and their exact layer-program compiler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import deepsets_linear_oracle
from traces import run_traced
from vnlab import numkit
from vnlab.deepsets import (
    DeepSetsNet,
    EquivariantLinear,
    compile_linear,
    compile_network,
    eval_linear,
    eval_network,
    random_linear,
    random_network,
    width_bound,
)
from vnlab.graphs import Graph, add_virtual_node
from vnlab.mpnnvn import load_program, save_program


def star(n):
    return add_virtual_node(Graph(n, ()))


def int_matrix(rng, shape):
    """Small integer-valued floats: sums/products are exact in binary."""
    return rng.integers(-3, 4, size=shape).astype(float)


# ---------------------------------------------------------------------------
# direct evaluation
# ---------------------------------------------------------------------------


class TestEvalLinear:
    def test_identity_layer_returns_input(self):
        d = 3
        layer = EquivariantLinear(np.eye(d), np.zeros((d, d)), np.zeros(d))
        X = numkit.make_rng(0).normal(size=(5, d))
        assert np.array_equal(eval_linear(X, layer), X)

    def test_mean_layer_broadcasts_column_mean(self):
        d = 2
        layer = EquivariantLinear(np.zeros((d, d)), np.eye(d), np.zeros(d))
        X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
        out = eval_linear(X, layer)
        assert np.allclose(out, np.tile([4.0, 5.0], (4, 1)), atol=1e-15)

    def test_bias_only_layer(self):
        layer = EquivariantLinear(np.zeros((2, 3)), np.zeros((2, 3)),
                                  np.array([1.0, 2.0, 3.0]))
        out = eval_linear(np.ones((2, 2)), layer)
        assert np.array_equal(out, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])

    def test_matches_loop_oracle(self):
        rng = numkit.make_rng(42)
        X = rng.normal(size=(6, 4))
        layer = random_linear(4, 3, rng)
        want = deepsets_linear_oracle(X, layer.A, layer.B, layer.c)
        assert numkit.max_abs_diff(eval_linear(X, layer), want) <= 1e-12

    def test_shape_mismatch_rejected(self):
        layer = EquivariantLinear(np.eye(2), np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="input dim"):
            eval_linear(np.ones((3, 4)), layer)

    def test_inconsistent_layer_shapes_rejected(self):
        with pytest.raises(ValueError, match="share a shape"):
            EquivariantLinear(np.eye(2), np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="bias length"):
            EquivariantLinear(np.eye(2), np.eye(2), np.zeros(3))

    def test_permutation_equivariance_exact_on_integer_inputs(self):
        # Integer-valued features keep every sum exact, so equivariance is
        # bitwise here; floats in general agree to roundoff only.
        rng = numkit.make_rng(3)
        X = int_matrix(rng, (6, 3))
        layer = EquivariantLinear(int_matrix(rng, (3, 2)),
                                  int_matrix(rng, (3, 2)),
                                  int_matrix(rng, 2))
        perm = rng.permutation(6)
        assert np.array_equal(eval_linear(X[perm], layer),
                              eval_linear(X, layer)[perm])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_equivariance_float(self, seed):
        rng = numkit.make_rng(seed)
        X = rng.normal(size=(5, 3))
        layer = random_linear(3, 4, rng)
        perm = rng.permutation(5)
        assert np.allclose(eval_linear(X[perm], layer),
                           eval_linear(X, layer)[perm], atol=1e-12)


class TestNetwork:
    def test_width_chain_validated(self):
        l1 = EquivariantLinear(np.eye(2), np.zeros((2, 2)), np.zeros(2))
        l2 = EquivariantLinear(np.eye(3), np.zeros((3, 3)), np.zeros(3))
        with pytest.raises(ValueError, match="width chain"):
            DeepSetsNet((l1, l2))

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError, match="at least one layer"):
            DeepSetsNet(())

    def test_widths_property(self):
        rng = numkit.make_rng(0)
        net = random_network([3, 5, 2], rng)
        assert net.widths == (3, 5, 2)

    def test_single_layer_network_is_the_layer(self):
        rng = numkit.make_rng(1)
        layer = random_linear(3, 2, rng)
        net = DeepSetsNet((layer,))
        X = rng.normal(size=(4, 3))
        assert np.array_equal(eval_network(X, net), eval_linear(X, layer))

    def test_activation_applies_between_layers_only(self):
        # One ReLU between two layers: negatives are clipped mid-network but
        # the final output may be negative.
        neg = EquivariantLinear(-np.eye(1), np.zeros((1, 1)), np.zeros(1))
        net = DeepSetsNet((neg, neg), activation="relu")
        X = np.array([[1.0], [-2.0]])
        # layer1: [-1, 2]; relu: [0, 2]; layer2: [0, -2]
        assert np.array_equal(eval_network(X, net), [[0.0], [-2.0]])


class TestWidthBound:
    def test_frozen_values(self):
        assert width_bound(3, 2, 2) == 14
        assert width_bound(1, 1, 1) == 4

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 100])
    def test_one_dimensional_family(self, n):
        assert width_bound(n, 1, 1) == n + 3

    def test_exact_integer_arithmetic_at_size(self):
        # binomial(60, 10) is far beyond float precision of naive factorials
        assert width_bound(50, 10, 7) == 7 + 10 + numkit.binom(60, 10)

    def test_monotone_in_n(self):
        values = [width_bound(n, 3, 2) for n in range(1, 10)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_domain_validated(self, bad):
        with pytest.raises(ValueError):
            width_bound(*bad)


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


class TestCompileLinear:
    def test_program_has_two_layers(self):
        layer = EquivariantLinear(np.eye(2), np.eye(2), np.zeros(2))
        assert len(compile_linear(layer, 4).layers) == 2

    def test_identity_layer_compiles_to_identity(self):
        d = 3
        layer = EquivariantLinear(np.eye(d), np.zeros((d, d)), np.zeros(d))
        X = numkit.make_rng(5).normal(size=(4, d))
        out = compile_linear(layer, 4).execute(star(4), X)
        assert np.array_equal(out, X)

    def test_mean_layer_program(self):
        d = 2
        layer = EquivariantLinear(np.zeros((d, d)), np.eye(d), np.zeros(d))
        X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = compile_linear(layer, 3).execute(star(3), X)
        assert numkit.max_abs_diff(out, eval_linear(X, layer)) <= 1e-12

    def test_random_layer_n7_d5(self):
        rng = numkit.make_rng(77)
        layer = random_linear(5, 5, rng)
        X = rng.normal(size=(7, 5))
        out = compile_linear(layer, 7).execute(star(7), X)
        assert numkit.max_abs_diff(out, eval_linear(X, layer)) <= 1e-12

    def test_exact_on_integer_instances(self):
        # With integer-valued data and n a power of two, every intermediate
        # is exactly representable: simulation is bit-for-bit.
        rng = numkit.make_rng(9)
        n = 4
        layer = EquivariantLinear(int_matrix(rng, (3, 2)),
                                  int_matrix(rng, (3, 2)),
                                  int_matrix(rng, 2))
        X = int_matrix(rng, (n, 3))
        out = compile_linear(layer, n).execute(star(n), X)
        assert np.array_equal(out, eval_linear(X, layer))

    def test_single_element_set(self):
        rng = numkit.make_rng(2)
        layer = random_linear(3, 2, rng)
        X = rng.normal(size=(1, 3))
        out = compile_linear(layer, 1).execute(star(1), X)
        assert numkit.max_abs_diff(out, eval_linear(X, layer)) <= 1e-12

    @given(st.integers(0, 2**31 - 1), st.integers(2, 10),
           st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_random_cases_match_direct_eval(self, seed, n, d_in, d_out):
        rng = numkit.make_rng(seed)
        layer = random_linear(d_in, d_out, rng)
        X = rng.normal(size=(n, d_in))
        out = compile_linear(layer, n).execute(star(n), X)
        assert numkit.max_abs_diff(out, eval_linear(X, layer)) <= 1e-12


class TestCompileNetwork:
    def test_one_layer_net_matches_compile_linear(self):
        rng = numkit.make_rng(4)
        layer = random_linear(3, 2, rng)
        X = rng.normal(size=(5, 3))
        a = compile_linear(layer, 5).execute(star(5), X)
        b = compile_network(DeepSetsNet((layer,)), 5).execute(star(5), X)
        assert np.array_equal(a, b)

    def test_three_layer_relu_network(self):
        rng = numkit.make_rng(6)
        net = random_network([4, 8, 8, 2], rng, activation="relu")
        X = rng.normal(size=(6, 4))
        prog = compile_network(net, 6)
        assert len(prog.layers) == 6
        out = prog.execute(star(6), X)
        assert numkit.max_abs_diff(out, eval_network(X, net)) <= 1e-12

    def test_elu_network(self):
        rng = numkit.make_rng(8)
        net = random_network([3, 6, 3], rng, activation="elu")
        X = rng.normal(size=(5, 3))
        out = compile_network(net, 5).execute(star(5), X)
        assert numkit.max_abs_diff(out, eval_network(X, net)) <= 1e-12

    def test_permuted_input_gives_permuted_output(self):
        rng = numkit.make_rng(10)
        net = random_network([3, 5, 3], rng)
        X = rng.normal(size=(6, 3))
        perm = rng.permutation(6)
        prog = compile_network(net, 6)
        out = prog.execute(star(6), X)
        out_p = prog.execute(star(6), X[perm])
        assert np.allclose(out_p, out[perm], atol=1e-12)

    def test_program_width_within_factor_two_of_net_width(self):
        rng = numkit.make_rng(11)
        widths = [3, 7, 4, 2]
        net = random_network(widths, rng)
        prog = compile_network(net, 5)
        X = rng.normal(size=(5, 3))
        states, _ = run_traced(star(5), prog.initial_state(X), prog)
        w = max(max(s.gn.shape[1], s.vn.shape[0]) for s in states)
        assert w <= 2 * max(widths)
        # this compiler in fact needs no extra width at all
        assert w == max(widths)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


class TestPersistence:
    def test_compiled_program_round_trip(self, tmp_path):
        rng = numkit.make_rng(14)
        net = random_network([3, 4, 3], rng)
        prog = compile_network(net, 4)
        path = tmp_path / "net-program.json"
        save_program(prog, path)
        again = load_program(path)
        X = rng.normal(size=(4, 3))
        assert np.array_equal(again.execute(star(4), X),
                              prog.execute(star(4), X))
        assert again.provenance == "deepsets-compiler"
        assert again.metadata["widths"] == [3, 4, 3]
