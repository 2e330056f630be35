"""Tests for the heterogeneous virtual-node layer engine."""

import hashlib

import numpy as np
import pytest

from vnlab import attention, mlp, numkit
from vnlab.constructions import (
    DeepSimConfig,
    FittedPiece,
    KernelPieces,
    KernelSimConfig,
    MlpResolveUpdate,
    MlpStatsPool,
    compile_deep_vn,
    compile_kernel_vn,
)
from vnlab.graphs import Graph, add_virtual_node
from vnlab.mpnnvn import (
    AddPooledNeighbors,
    AffineFromVn,
    ConstVn,
    CopyPooled,
    CopyVnMsg,
    Descriptor,
    FeatureStatsPool,
    Gatv2SelectPool,
    IdentityGn,
    IdentityPairMsg,
    KeepVn,
    LayerProgram,
    LinearGn,
    MeanPool,
    MpnnVnLayer,
    NodeState,
    OracleSelectPool,
    RatioUpdate,
    ResolveQueryUpdate,
    ScoreAccumulate,
    SelectorAdvance,
    SoftmaxSelectPool,
    descriptor_from_json,
    load_program,
    program_from_json,
    program_to_json,
    run_layer,
    run_program,
    save_program,
)


def star(n):
    """n graph nodes plus one virtual node adjacent to all of them."""
    return add_virtual_node(Graph(n, ()))


def unfitted_pieces():
    """Kernel pieces with freshly initialized networks; nothing is fit."""

    def piece(name, seed, lo, hi):
        spec = mlp.MlpSpec(widths=(1, 3, 1), activation="elu")
        params = mlp.init_params(spec, numkit.make_rng(seed), seed=seed)
        return FittedPiece(name=name, params=params, lo=lo, hi=hi,
                           sup_error=0.5, target=0.25)

    return KernelPieces(
        kind="exp_features", sq=piece("sq", 6, -2.2, 2.2),
        expish=piece("exp", 7, -3.0, 1.5), recip=piece("recip", 8, 0.5, 4.0),
        bounds={"k_abs": 1.5, "q_abs": 1.25, "v_abs": 0.75,
                "phi_k_max": 2.0, "phi_q_max": 2.5, "s_max": 3.0,
                "m_abs": 1.0, "num_abs": 2.0, "inv_max": 2.0},
    )


def plain_layer(vn_pool=None, vn_update=None, gn_update=None, gn_gn_msg=None):
    return MpnnVnLayer(
        vn_pool=vn_pool or MeanPool(),
        vn_update=vn_update or CopyPooled(),
        gn_msg=CopyVnMsg(),
        gn_update=gn_update or IdentityGn(),
        gn_gn_msg=gn_gn_msg,
    )


# ---------------------------------------------------------------------------
# single-layer behavior
# ---------------------------------------------------------------------------


class TestPoolsAndUpdates:
    def test_mean_pool(self):
        g = star(4)
        X = np.arange(8.0).reshape(4, 2)
        s = NodeState(X, np.zeros(2))
        out, _ = run_layer(g, s, plain_layer(vn_pool=MeanPool()))
        assert np.allclose(out.vn, X.mean(axis=0), atol=1e-15)

    def test_synchronous_barrier_gn_sees_pre_layer_vn(self):
        # The virtual node changes this layer, but graph nodes must receive
        # the value it held *before* the layer.
        g = star(2)
        X = np.array([[1.0], [2.0]])
        old_vn = np.array([7.0])
        layer = MpnnVnLayer(
            vn_pool=MeanPool(),
            vn_update=CopyPooled(),
            gn_msg=CopyVnMsg(),
            gn_update=AffineFromVn(np.eye(1), np.zeros(1)),
        )
        out, _ = run_layer(g, NodeState(X, old_vn), layer)
        assert np.array_equal(out.vn, np.array([1.5]))  # updated
        assert np.array_equal(out.gn, X + 7.0)  # but nodes saw 7, not 1.5

    def test_const_vn(self):
        g = star(2)
        s = NodeState(np.ones((2, 3)), np.zeros(1))
        out, _ = run_layer(
            g, s,
            plain_layer(vn_update=ConstVn(np.array([5.0, 5.0, 5.0]))),
        )
        assert np.array_equal(out.vn, np.array([5.0, 5.0, 5.0]))

    def test_keep_vn(self):
        g = star(2)
        s = NodeState(np.ones((2, 2)), np.array([3.0, 4.0]))
        out, _ = run_layer(g, s, plain_layer(vn_update=KeepVn()))
        assert np.array_equal(out.vn, s.vn)

    def test_oracle_select_pool_picks_one_row(self):
        g = star(3)
        X = np.array([[1.0, 0.0], [2.0, 5.0], [3.0, 1.0]])
        out, aux = run_layer(
            g, NodeState(X, np.zeros(2)),
            plain_layer(vn_pool=OracleSelectPool(index=1)),
        )
        assert np.array_equal(out.vn, X[1])
        assert np.array_equal(aux["selection_weights"], [0.0, 1.0, 0.0])

    def test_oracle_select_pool_range_check(self):
        g = star(2)
        with pytest.raises(ValueError, match="out of range"):
            run_layer(g, NodeState(np.ones((2, 1)), np.zeros(1)),
                      plain_layer(vn_pool=OracleSelectPool(index=5)))

    def test_softmax_select_zero_scale_is_mean(self):
        d = 2
        g = star(3)
        gn = np.array([[1.0, 0.0, 9.0, 9.0, 0.0],
                       [0.0, 1.0, 8.0, 8.0, 0.0],
                       [1.0, 1.0, 7.0, 7.0, 0.0]])
        vn = np.zeros(5)
        vn[d:2 * d] = [1.0, 0.0]
        out, aux = run_layer(
            g, NodeState(gn, vn),
            plain_layer(vn_pool=SoftmaxSelectPool(width=d, scale=0.0)),
        )
        assert np.allclose(aux["selection_weights"], np.full(3, 1 / 3), atol=1e-15)
        assert np.allclose(out.vn, gn.mean(axis=0), atol=1e-15)

    def test_softmax_select_large_scale_approaches_argmax(self):
        d = 2
        g = star(3)
        gn = np.array([[1.0, 0.0, 0.5, 0.5, 0.0],
                       [0.0, 1.0, 0.4, 0.4, 0.0],
                       [0.3, 0.3, 0.3, 0.3, 0.0]])
        vn = np.zeros(5)
        vn[d:2 * d] = [1.0, 0.0]  # selector aligned with row 0
        _, aux = run_layer(
            g, NodeState(gn, vn),
            plain_layer(vn_pool=SoftmaxSelectPool(width=d, scale=200.0)),
        )
        w = aux["selection_weights"]
        assert w[0] > 1.0 - 1e-12
        assert np.all(w >= 0.0) and abs(w.sum() - 1.0) < 1e-12

    def test_selector_advance_layout(self):
        adv = SelectorAdvance(width=2, next_selector=np.array([3.0, 4.0]))
        newvn = adv(np.zeros(5), np.array([10.0, 20.0, 99.0, 99.0, 99.0]))
        assert np.array_equal(newvn, [10.0, 20.0, 3.0, 4.0, 0.0])

    def test_selector_advance_without_next_zeroes_slot(self):
        adv = SelectorAdvance(width=2, next_selector=None)
        newvn = adv(np.zeros(5), np.array([10.0, 20.0, 99.0, 99.0, 99.0]))
        assert np.array_equal(newvn, [10.0, 20.0, 0.0, 0.0, 0.0])

    def test_linear_gn(self):
        g = star(2)
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        out, _ = run_layer(g, NodeState(X, np.zeros(1)),
                           plain_layer(gn_update=LinearGn(A)))
        assert np.array_equal(out.gn, X @ A)

    def test_affine_from_vn_with_activation(self):
        g = star(2)
        X = np.array([[1.0], [-10.0]])
        layer = MpnnVnLayer(
            vn_pool=MeanPool(), vn_update=KeepVn(), gn_msg=CopyVnMsg(),
            gn_update=AffineFromVn(np.array([[1.0]]), np.array([2.0]),
                                   activation="relu"),
        )
        out, _ = run_layer(g, NodeState(X, np.array([1.0])), layer)
        # relu(x + 1 + 2)
        assert np.array_equal(out.gn, [[4.0], [0.0]])


class TestPairChannel:
    def test_identity_pair_messages_on_path(self):
        base = Graph(3, ((0, 1), (1, 2)))
        g = add_virtual_node(base)
        X = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        layer = plain_layer(gn_update=AddPooledNeighbors(),
                            gn_gn_msg=IdentityPairMsg())
        out, _ = run_layer(g, NodeState(X, np.zeros(2)), layer)
        expected = X + np.array([X[1], X[0] + X[2], X[1]])
        assert np.array_equal(out.gn, expected)

    def test_pair_channel_ignores_virtual_node_edges(self):
        # Star graph: no graph-graph edges at all, so neighbor sums vanish.
        g = star(3)
        X = np.ones((3, 2))
        layer = plain_layer(gn_update=AddPooledNeighbors(),
                            gn_gn_msg=IdentityPairMsg())
        out, _ = run_layer(g, NodeState(X, np.zeros(2)), layer)
        assert np.array_equal(out.gn, X)


class TestRunLayerValidation:
    def test_requires_virtual_node(self):
        g = Graph(3, ((0, 1),))
        with pytest.raises(ValueError, match="virtual node"):
            run_layer(g, NodeState(np.ones((3, 1)), np.zeros(1)), plain_layer())

    def test_row_count_must_match(self):
        g = star(3)
        with pytest.raises(ValueError, match="graph-node rows"):
            run_layer(g, NodeState(np.ones((2, 1)), np.zeros(1)), plain_layer())


# ---------------------------------------------------------------------------
# programs
# ---------------------------------------------------------------------------


def mean_subtract_program(d):
    """Two layers computing x_i - mean(x): read the mean, then subtract it."""
    collect = MpnnVnLayer(
        vn_pool=MeanPool(), vn_update=CopyPooled(),
        gn_msg=CopyVnMsg(), gn_update=IdentityGn(),
    )
    subtract = MpnnVnLayer(
        vn_pool=MeanPool(), vn_update=KeepVn(),
        gn_msg=CopyVnMsg(),
        gn_update=AffineFromVn(-np.eye(d), np.zeros(d)),
    )
    return LayerProgram(layers=[collect, subtract], vn_init=np.zeros(d),
                        provenance="test")


class TestPrograms:
    def test_empty_program_is_identity(self):
        g = star(3)
        X = np.arange(6.0).reshape(3, 2)
        prog = LayerProgram(layers=[], vn_init=np.zeros(2))
        assert np.array_equal(prog.execute(g, X), X)

    def test_mean_subtraction_program(self):
        g = star(5)
        rng = numkit.make_rng(0)
        X = rng.normal(size=(5, 3))
        out = mean_subtract_program(3).execute(g, X)
        assert np.allclose(out, X - X.mean(axis=0), atol=1e-14)

    def test_permutation_equivariance(self):
        g = star(6)
        rng = numkit.make_rng(1)
        X = rng.normal(size=(6, 3))
        perm = rng.permutation(6)
        prog = mean_subtract_program(3)
        out = prog.execute(g, X)
        out_p = prog.execute(g, X[perm])
        assert np.allclose(out_p, out[perm], atol=1e-12)

    def test_pad_initial_state(self):
        prog = LayerProgram(layers=[], vn_init=np.zeros(1),
                            gn_init=("pad", 5))
        s = prog.initial_state(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert s.gn.shape == (2, 5)
        assert np.array_equal(s.gn[:, :2], [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(s.gn[:, 2:], np.zeros((2, 3)))

    def test_pad_width_too_small(self):
        prog = LayerProgram(layers=[], vn_init=np.zeros(1),
                            gn_init=("pad", 1))
        with pytest.raises(ValueError, match="pad width"):
            prog.initial_state(np.ones((2, 3)))

    def test_gn_out_slice(self):
        g = star(2)
        X = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        prog = LayerProgram(layers=[], vn_init=np.zeros(1), gn_out=(1, 3))
        assert np.array_equal(prog.execute(g, X), X[:, 1:3])

    @staticmethod
    def _observed_selection_run():
        g = star(3)
        gn = np.zeros((3, 5))
        gn[:, 0] = [1.0, 2.0, 3.0]
        vn = np.zeros(5)
        vn[2] = 1.0  # selector slot for width=2
        prog = LayerProgram(layers=[
            plain_layer(vn_update=KeepVn()),
            plain_layer(vn_pool=SoftmaxSelectPool(width=2, scale=1.0),
                        vn_update=KeepVn()),
            plain_layer(vn_pool=OracleSelectPool(index=2)),
        ], vn_init=vn)
        s0 = NodeState(gn, vn)
        seen = []
        final = run_program(g, s0, prog,
                            observe=lambda k, s, aux: seen.append((k, s, aux)))
        return g, s0, prog, seen, final

    def test_trace_records_every_state(self):
        g, s0, prog, seen, final = self._observed_selection_run()
        assert [k for k, _, _ in seen] == [1, 2, 3]
        s = s0
        for (_, state, _), layer in zip(seen, prog.layers):
            s, _ = run_layer(g, s, layer)
            assert np.array_equal(state.gn, s.gn)
            assert np.array_equal(state.vn, s.vn)
        assert seen[-1][1] is final

    def test_trace_captures_selection_weights(self):
        _, _, _, seen, _ = self._observed_selection_run()
        assert seen[0][2] is None  # plain pool
        scores = np.exp([1.0, 2.0, 3.0])
        assert np.allclose(seen[1][2]["selection_weights"],
                           scores / scores.sum(), atol=1e-15)
        assert np.array_equal(seen[2][2]["selection_weights"], [0.0, 0.0, 1.0])

    def test_empty_program_never_observes(self):
        s0 = NodeState(np.ones((3, 2)), np.zeros(2))
        seen = []
        empty = LayerProgram(layers=[], vn_init=np.zeros(2))
        out = run_program(star(3), s0, empty,
                          observe=lambda *args: seen.append(args))
        assert seen == []
        assert out is s0


# ---------------------------------------------------------------------------
# kernel-statistics layers reproduce the regrouped attention computation
# ---------------------------------------------------------------------------


class TestKernelLayers:
    def _program(self, w, fm):
        d = w.in_dim
        collect = MpnnVnLayer(
            vn_pool=FeatureStatsPool(w.w_k, w.w_v, fm),
            vn_update=CopyPooled(),
            gn_msg=CopyVnMsg(),
            gn_update=IdentityGn(),
        )
        resolve = MpnnVnLayer(
            vn_pool=MeanPool(),
            vn_update=KeepVn(),
            gn_msg=CopyVnMsg(),
            gn_update=ResolveQueryUpdate(w.w_q, fm, value_dim=w.out_dim),
        )
        return LayerProgram(layers=[collect, resolve], vn_init=np.zeros(d),
                            provenance="test")

    @pytest.mark.parametrize("kind", ["exp_features", "elu_features"])
    def test_two_layer_program_matches_regrouped_attention(self, kind):
        rng = numkit.make_rng(11)
        n, d = 6, 3
        X = rng.uniform(-0.5, 0.5, size=(n, d))
        w = attention.random_weights(d, rng)
        if kind == "exp_features":
            fm = attention.exp_feature_map(8, d, seed=2)
        else:
            fm = attention.elu_feature_map()
        want = attention.approx_attention(X, w, fm)
        got = self._program(w, fm).execute(star(n), X)
        assert numkit.max_abs_diff(got, want) <= 1e-12

    def test_feature_stats_pool_width(self):
        fm = attention.exp_feature_map(8, 3, seed=0)
        pool = FeatureStatsPool(np.eye(3), np.ones((3, 2)), fm)
        assert pool.out_width() == 8 * (1 + 2)
        g = star(2)
        out, _ = run_layer(g, NodeState(np.zeros((2, 3)), np.zeros(1)),
                           plain_layer(vn_pool=pool))
        assert out.vn.shape == (24,)

    def test_resolve_query_rejects_nonpositive_denominator(self):
        fm = attention.elu_feature_map()
        upd = ResolveQueryUpdate(np.eye(2), fm, value_dim=2)
        msg = np.zeros((2, 6))  # key_sum = 0 -> denominator 0
        with pytest.raises(ValueError, match="denominator"):
            upd(np.zeros((2, 2)), msg, None)

    def test_resolve_query_rejects_nan_denominator(self):
        fm = attention.elu_feature_map()
        upd = ResolveQueryUpdate(np.eye(2), fm, value_dim=2)
        msg = np.ones((2, 6))
        gn = np.array([[0.1, 0.2], [np.nan, 0.3]])
        with pytest.raises(ValueError, match="denominator"):
            upd(gn, msg, None)

    def test_mlp_resolve_rejects_nan_denominator(self):
        # unfitted pieces can give either sign, so only NaN rows are fed
        fm = attention.exp_feature_map(4, 2, seed=1)
        upd = MlpResolveUpdate(np.eye(2), fm, unfitted_pieces(), value_dim=2)
        msg = np.ones((2, 12))
        gn = np.full((2, 2), np.nan)
        with pytest.raises(ValueError, match="denominator"):
            upd(gn, msg, None)


class TestScoreAccumulate:
    def test_one_accumulation_step_by_hand(self):
        d = 1
        w_q = np.array([[2.0]])
        w_k = np.array([[1.0]])
        w_v = np.array([[3.0]])
        upd = ScoreAccumulate(w_q, w_k, w_v, width=d)
        gn = np.array([[1.0, 0.0, 0.0], [2.0, 1.0, 1.0]])
        y = np.array([0.5, 9.0, 9.0])  # only the first block is read
        msg = np.tile(y, (2, 1))
        out = upd(gn, msg, None)
        e0 = np.exp(1.0 * 2.0 * 0.5 * 1.0)
        e1 = np.exp(2.0 * 2.0 * 0.5 * 1.0)
        assert np.allclose(out[:, 0], [1.0, 2.0], atol=0)
        assert np.allclose(out[0], [1.0, e0 * 1.5, e0], atol=1e-12)
        assert np.allclose(out[1], [2.0, 1.0 + e1 * 1.5, 1.0 + e1], atol=1e-12)

    def test_ratio_update(self):
        upd = RatioUpdate(width=2)
        gn = np.array([[9.0, 9.0, 6.0, 8.0, 2.0]])
        out = upd(gn, None, None)
        assert np.array_equal(out, [[3.0, 4.0, 0.0, 0.0, 0.0]])

    def test_ratio_update_rejects_zero_mass(self):
        upd = RatioUpdate(width=1)
        with pytest.raises(ValueError, match="mass"):
            upd(np.array([[1.0, 1.0, 0.0]]), None, None)

    def test_ratio_update_rejects_nan_mass(self):
        upd = RatioUpdate(width=1)
        with pytest.raises(ValueError, match="mass"):
            upd(np.array([[1.0, 1.0, 2.0], [1.0, 1.0, np.nan]]), None, None)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


class TestPersistence:
    def _rich_program(self):
        rng = numkit.make_rng(3)
        fm = attention.exp_feature_map(4, 2, seed=9)
        g2 = attention.Gatv2Score(
            a=rng.normal(size=3), w=rng.normal(size=(3, 4)),
            b=rng.normal(size=3),
        )
        pieces = unfitted_pieces()
        layers = [
            MpnnVnLayer(FeatureStatsPool(rng.normal(size=(2, 2)),
                                         rng.normal(size=(2, 2)), fm),
                        CopyPooled(), CopyVnMsg(), IdentityGn()),
            MpnnVnLayer(SoftmaxSelectPool(width=2, scale=3.5),
                        SelectorAdvance(width=2,
                                        next_selector=np.array([1.0, -1.0])),
                        CopyVnMsg(),
                        ScoreAccumulate(np.eye(2), np.eye(2),
                                        rng.normal(size=(2, 2)), width=2)),
            MpnnVnLayer(Gatv2SelectPool(g2, width=2, scale=2.0),
                        ConstVn(np.ones(5)), CopyVnMsg(),
                        AddPooledNeighbors(), gn_gn_msg=IdentityPairMsg()),
            MpnnVnLayer(OracleSelectPool(index=1), KeepVn(), CopyVnMsg(),
                        RatioUpdate(width=2), gn_gn_msg=IdentityPairMsg()),
            MpnnVnLayer(MeanPool(), CopyPooled(), CopyVnMsg(),
                        AffineFromVn(rng.normal(size=(5, 5)),
                                     rng.normal(size=5),
                                     activation="leaky_relu")),
            MpnnVnLayer(MeanPool(), KeepVn(), CopyVnMsg(),
                        LinearGn(rng.normal(size=(5, 3)))),
            MpnnVnLayer(MeanPool(), CopyPooled(), CopyVnMsg(),
                        AddPooledNeighbors()),
            MpnnVnLayer(MeanPool(), SelectorAdvance(width=2), CopyVnMsg(),
                        ResolveQueryUpdate(rng.normal(size=(2, 2)), fm,
                                           value_dim=2)),
            MpnnVnLayer(MlpStatsPool(rng.normal(size=(2, 2)),
                                     rng.normal(size=(2, 2)), fm, pieces),
                        KeepVn(), CopyVnMsg(),
                        MlpResolveUpdate(rng.normal(size=(2, 2)), fm, pieces,
                                         value_dim=2)),
            MpnnVnLayer(MeanPool(), CopyPooled(), CopyVnMsg(),
                        AffineFromVn(rng.normal(size=(5, 5)),
                                     rng.normal(size=5))),
        ]
        return LayerProgram(
            layers=layers, vn_init=np.ones(5), gn_init=("pad", 5),
            gn_out=(0, 2), provenance="round-trip-test",
            metadata={"note": "exercises every descriptor kind"},
        )

    def test_rich_program_covers_every_descriptor_kind(self):
        prog = self._rich_program()
        covered = set()
        for layer in prog.layers:
            for slot in (layer.vn_pool, layer.vn_update, layer.gn_msg,
                         layer.gn_update, layer.gn_gn_msg):
                if slot is not None:
                    covered.add(slot.kind)
        assert covered == set(Descriptor._registry)
        gn_updates = [layer.gn_update for layer in prog.layers]
        vn_updates = [layer.vn_update for layer in prog.layers]
        assert any(isinstance(u, AffineFromVn) and u.activation is None
                   for u in gn_updates)
        assert any(isinstance(u, SelectorAdvance) and u.next_selector is None
                   for u in vn_updates)

    @staticmethod
    def _pinned_weights(rng, d):
        # drawn directly, without the spectral rescaling of random_weights,
        # so that the saved bytes do not depend on the LAPACK build
        return attention.AttnWeights(*(0.3 * rng.normal(size=(d, d))
                                       for _ in range(3)))

    def _pinned_program(self, name):
        if name == "rich":
            return self._rich_program()
        w = self._pinned_weights(numkit.make_rng(21), 3)
        if name == "deep_oracle":
            return compile_deep_vn(w, DeepSimConfig(n=5, selection="oracle"))
        fm = attention.exp_feature_map(4, 3, seed=2)
        return compile_kernel_vn(w, KernelSimConfig(feature_map=fm))

    # sha256 of the saved layer-program/v1 documents; a change here is a
    # change of the on-disk format
    PINNED_SHA256 = {
        "rich":
            "2ce11df007937bad5a65edb4093feec3caaa783b8ebe6c94961bae859447c26e",
        "deep_oracle":
            "a9a3554485d4ca82f2aff2734208100a4995b8ad9f6accb9ea2bf58918b2df02",
        "kernel_exact":
            "f388138b5b113a758ab19c7768fd9bb0dd4c178af85c580385aa86fc0fc05b17",
    }

    @pytest.mark.parametrize("name", sorted(PINNED_SHA256))
    def test_saved_bytes_are_pinned(self, name, tmp_path):
        path = tmp_path / "program.json"
        save_program(self._pinned_program(name), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.PINNED_SHA256[name]

    def test_round_trip_preserves_document(self, tmp_path):
        prog = self._rich_program()
        path = tmp_path / "program.json"
        save_program(prog, path)
        again = load_program(path)
        assert program_to_json(again) == program_to_json(prog)
        assert again.provenance == "round-trip-test"
        assert again.gn_init == ("pad", 5)
        assert again.gn_out == (0, 2)
        assert len(again.layers) == len(prog.layers)

    def test_round_trip_mean_subtract_execution_identical(self, tmp_path):
        # Execution of a reloaded program is bit-identical: JSON float
        # round-trips are exact via repr.
        g = star(4)
        rng = numkit.make_rng(8)
        X = rng.normal(size=(4, 3))
        prog = mean_subtract_program(3)
        path = tmp_path / "p.json"
        save_program(prog, path)
        again = load_program(path)
        assert np.array_equal(again.execute(g, X), prog.execute(g, X))

    def test_format_tag_checked(self):
        with pytest.raises(ValueError, match="layer-program/v1"):
            program_from_json({"format": "other"})

    def test_missing_required_field_names_kind_and_field(self):
        with pytest.raises(ValueError,
                           match="softmax_select_pool.*'width'"):
            descriptor_from_json({"kind": "softmax_select_pool"})
        with pytest.raises(ValueError, match="linear_gn.*'matrix'"):
            descriptor_from_json({"kind": "linear_gn", "matrix": None})
        blob = program_to_json(self._rich_program())
        del blob["layers"][0]["gn_update"]
        with pytest.raises(ValueError, match="MpnnVnLayer.*'gn_update'"):
            program_from_json(blob)

    def test_missing_optional_fields_decode_to_none(self):
        adv = descriptor_from_json({"kind": "selector_advance", "width": 2})
        assert adv.width == 2 and adv.next_selector is None
        affine = descriptor_from_json({
            "kind": "affine_from_vn",
            "matrix": numkit.matrix_to_json(np.eye(2)),
            "bias": numkit.vector_to_json(np.zeros(2)),
        })
        assert affine.activation is None
        blob = program_to_json(mean_subtract_program(2))
        del blob["layers"][0]["gn_gn_msg"]
        assert program_from_json(blob).layers[0].gn_gn_msg is None

    def test_unknown_descriptor_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown descriptor kind"):
            descriptor_from_json({"kind": "no_such_thing"})

    def test_duplicate_kind_registration_rejected(self):
        with pytest.raises(TypeError, match="duplicate"):
            class Clash(Descriptor):
                kind = "mean_pool"
