"""Tests for the heterogeneous virtual-node layer engine."""

import hashlib
import pathlib

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnlab import attention, mlp, mpnnvn, numkit
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
    AffineFromVn,
    ConstVn,
    CopyPooled,
    Descriptor,
    FeatureStatsPool,
    Gatv2SelectPool,
    IdentityGn,
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
    StageQuery,
    descriptor_from_json,
    load_program,
    program_from_json,
    program_to_json,
    run_layer,
    run_program,
    save_program,
)
from vnlab.separability import l1_certificate

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


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


def plain_layer(vn_pool=None, vn_update=None, gn_update=None):
    return MpnnVnLayer(
        vn_pool=vn_pool or MeanPool(),
        vn_update=vn_update or CopyPooled(),
        gn_update=gn_update or IdentityGn(),
    )


# ---------------------------------------------------------------------------
# single-layer behavior
# ---------------------------------------------------------------------------


class TestPoolsAndUpdates:
    def test_mean_pool(self):
        X = np.arange(8.0).reshape(4, 2)
        s = NodeState(X, np.zeros(2))
        out, _ = run_layer(s, plain_layer(vn_pool=MeanPool()))
        assert np.allclose(out.vn, X.mean(axis=0), atol=1e-15)

    def test_synchronous_barrier_gn_sees_pre_layer_vn(self):
        # The virtual node changes this layer, but graph nodes must receive
        # the value it held *before* the layer.
        X = np.array([[1.0], [2.0]])
        old_vn = np.array([7.0])
        layer = MpnnVnLayer(
            vn_pool=MeanPool(),
            vn_update=CopyPooled(),
            gn_update=AffineFromVn(np.eye(1), np.zeros(1)),
        )
        out, _ = run_layer(NodeState(X, old_vn), layer)
        assert np.array_equal(out.vn, np.array([1.5]))  # updated
        assert np.array_equal(out.gn, X + 7.0)  # but nodes saw 7, not 1.5

    def test_const_vn(self):
        s = NodeState(np.ones((2, 3)), np.zeros(1))
        out, _ = run_layer(
            s,
            plain_layer(vn_update=ConstVn(np.array([5.0, 5.0, 5.0]))),
        )
        assert np.array_equal(out.vn, np.array([5.0, 5.0, 5.0]))

    def test_keep_vn(self):
        s = NodeState(np.ones((2, 2)), np.array([3.0, 4.0]))
        out, _ = run_layer(s, plain_layer(vn_update=KeepVn()))
        assert np.array_equal(out.vn, s.vn)

    def test_oracle_select_pool_picks_one_row(self):
        X = np.array([[1.0, 0.0], [2.0, 5.0], [3.0, 1.0]])
        out, aux = run_layer(
            NodeState(X, np.zeros(2)),
            plain_layer(vn_pool=OracleSelectPool(index=1)),
        )
        assert np.array_equal(out.vn, X[1])
        assert np.array_equal(aux["selection_weights"], [0.0, 1.0, 0.0])

    def test_oracle_select_pool_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            run_layer(NodeState(np.ones((2, 1)), np.zeros(1)),
                      plain_layer(vn_pool=OracleSelectPool(index=5)))

    def test_softmax_select_zero_scale_is_mean(self):
        d = 2
        gn = np.array([[1.0, 0.0, 9.0, 9.0, 0.0],
                       [0.0, 1.0, 8.0, 8.0, 0.0],
                       [1.0, 1.0, 7.0, 7.0, 0.0]])
        vn = np.zeros(5)
        vn[d:2 * d] = [1.0, 0.0]
        out, aux = run_layer(
            NodeState(gn, vn),
            plain_layer(vn_pool=SoftmaxSelectPool(width=d, scale=0.0)),
        )
        assert np.allclose(aux["selection_weights"], np.full(3, 1 / 3), atol=1e-15)
        assert np.allclose(out.vn, gn.mean(axis=0), atol=1e-15)

    def test_softmax_select_large_scale_approaches_argmax(self):
        d = 2
        gn = np.array([[1.0, 0.0, 0.5, 0.5, 0.0],
                       [0.0, 1.0, 0.4, 0.4, 0.0],
                       [0.3, 0.3, 0.3, 0.3, 0.0]])
        vn = np.zeros(5)
        vn[d:2 * d] = [1.0, 0.0]  # selector aligned with row 0
        _, aux = run_layer(
            NodeState(gn, vn),
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
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        out, _ = run_layer(NodeState(X, np.zeros(1)),
                           plain_layer(gn_update=LinearGn(A)))
        assert np.array_equal(out.gn, X @ A)

    def test_affine_from_vn_with_activation(self):
        X = np.array([[1.0], [-10.0]])
        layer = MpnnVnLayer(
            vn_pool=MeanPool(), vn_update=KeepVn(),
            gn_update=AffineFromVn(np.array([[1.0]]), np.array([2.0]),
                                   activation="relu"),
        )
        out, _ = run_layer(NodeState(X, np.array([1.0])), layer)
        # relu(x + 1 + 2)
        assert np.array_equal(out.gn, [[4.0], [0.0]])


class TestRunLayerValidation:
    # the host graph is checked once per program, by execute
    @staticmethod
    def _program():
        return LayerProgram(layers=[plain_layer()], vn_init=np.zeros(1))

    def test_requires_virtual_node(self):
        g = Graph(3, ((0, 1),))
        with pytest.raises(ValueError, match="virtual node"):
            self._program().execute(g, np.ones((3, 1)))

    def test_row_count_must_match(self):
        g = star(3)
        with pytest.raises(ValueError, match="graph-node rows"):
            self._program().execute(g, np.ones((2, 1)))


# ---------------------------------------------------------------------------
# programs
# ---------------------------------------------------------------------------


def mean_subtract_program(d):
    """Two layers computing x_i - mean(x): read the mean, then subtract it."""
    collect = MpnnVnLayer(
        vn_pool=MeanPool(), vn_update=CopyPooled(), gn_update=IdentityGn(),
    )
    subtract = MpnnVnLayer(
        vn_pool=MeanPool(), vn_update=KeepVn(),
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
        final = run_program(s0, prog,
                            observe=lambda k, s, aux: seen.append((k, s, aux)))
        return s0, prog, seen, final

    def test_trace_records_every_state(self):
        s0, prog, seen, final = self._observed_selection_run()
        assert [k for k, _, _ in seen] == [1, 2, 3]
        s = s0
        for (_, state, _), layer in zip(seen, prog.layers):
            s, _ = run_layer(s, layer)
            assert np.array_equal(state.gn, s.gn)
            assert np.array_equal(state.vn, s.vn)
        assert seen[-1][1] is final

    def test_trace_captures_selection_weights(self):
        _, _, seen, _ = self._observed_selection_run()
        assert seen[0][2] is None  # plain pool
        scores = np.exp([1.0, 2.0, 3.0])
        assert np.allclose(seen[1][2]["selection_weights"],
                           scores / scores.sum(), atol=1e-15)
        assert np.array_equal(seen[2][2]["selection_weights"], [0.0, 0.0, 1.0])

    def test_empty_program_never_observes(self):
        s0 = NodeState(np.ones((3, 2)), np.zeros(2))
        seen = []
        empty = LayerProgram(layers=[], vn_init=np.zeros(2))
        out = run_program(s0, empty,
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
            gn_update=IdentityGn(),
        )
        resolve = MpnnVnLayer(
            vn_pool=MeanPool(),
            vn_update=KeepVn(),
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
        out, _ = run_layer(NodeState(np.zeros((2, 3)), np.zeros(1)),
                           plain_layer(vn_pool=pool))
        assert out.vn.shape == (24,)

    def test_resolve_query_rejects_nonpositive_denominator(self):
        fm = attention.elu_feature_map()
        upd = ResolveQueryUpdate(np.eye(2), fm, value_dim=2)
        vn = np.zeros(6)  # key_sum = 0 -> denominator 0
        with pytest.raises(ValueError, match="denominator"):
            upd(np.zeros((2, 2)), vn)

    def test_resolve_query_rejects_nan_denominator(self):
        fm = attention.elu_feature_map()
        upd = ResolveQueryUpdate(np.eye(2), fm, value_dim=2)
        vn = np.ones(6)
        gn = np.array([[0.1, 0.2], [np.nan, 0.3]])
        with pytest.raises(ValueError, match="denominator"):
            upd(gn, vn)

    def test_mlp_resolve_rejects_nan_denominator(self):
        # unfitted pieces can give either sign, so only NaN rows are fed
        fm = attention.exp_feature_map(4, 2, seed=1)
        upd = MlpResolveUpdate(np.eye(2), fm, unfitted_pieces(), value_dim=2)
        vn = np.ones(12)
        gn = np.full((2, 2), np.nan)
        with pytest.raises(ValueError, match="denominator"):
            upd(gn, vn)


class TestScoreAccumulate:
    def test_one_accumulation_step_by_hand(self):
        d = 1
        w_q = np.array([[2.0]])
        w_k = np.array([[1.0]])
        w_v = np.array([[3.0]])
        upd = ScoreAccumulate(w_q, w_k, w_v, width=d)
        gn = np.array([[1.0, 0.0, 0.0], [2.0, 1.0, 1.0]])
        vn = np.array([0.5, 9.0, 9.0])  # only the first block is read
        out = upd(gn, vn)
        e0 = np.exp(1.0 * 2.0 * 0.5 * 1.0)
        e1 = np.exp(2.0 * 2.0 * 0.5 * 1.0)
        assert np.allclose(out[:, 0], [1.0, 2.0], atol=0)
        assert np.allclose(out[0], [1.0, e0 * 1.5, e0], atol=1e-12)
        assert np.allclose(out[1], [2.0, 1.0 + e1 * 1.5, 1.0 + e1], atol=1e-12)

    @staticmethod
    def _per_row(upd, gn, vn):
        # one row at a time with einsum, the reference trace's rounding; q is
        # recomputed from x, so a staged q must equal it bitwise
        d = upd.width
        yk = vn[:d] @ upd.w_k
        yv = vn[:d] @ upd.w_v
        out = gn.copy()
        for i in range(gn.shape[0]):
            q = np.einsum("a,ac->c", gn[i, :d], upd.w_q)
            e = np.exp(np.einsum("c,c->", q, yk))
            out[i, d : 2 * d] = gn[i, d : 2 * d] + e * yv
            out[i, 2 * d] = gn[i, 2 * d] + e
        return out

    @pytest.mark.parametrize("n, d, pad", [
        (1, 1, 0), (5, 1, 0), (1, 4, 0), (256, 8, 0), (37, 3, 2), (256, 8, 5),
    ])
    def test_batched_equals_per_row_bitwise(self, n, d, pad):
        # pad > 0: the [x | acc | mass] (or [x | acc | mass | q]) state sits
        # inside a wider state, so the x and q blocks are strided views
        rng = numkit.make_rng(1000 * n + 10 * d + pad)
        upd = ScoreAccumulate(rng.normal(size=(d, d)), rng.normal(size=(d, d)),
                              rng.normal(size=(d, d)), width=d)
        gn = rng.normal(size=(n, 2 * d + 1 + pad)) * 0.6
        gn[:, 2 * d] = np.abs(gn[:, 2 * d])
        vn = rng.normal(size=2 * d + 1) * 0.6
        out = upd(gn, vn)
        assert np.array_equal(out, self._per_row(upd, gn, vn))
        assert np.array_equal(out[:, :d], gn[:, :d])
        # staged path: StageQuery writes q once, the accumulation reads it
        staged = rng.normal(size=(n, 3 * d + 1 + pad)) * 0.6
        staged[:, 2 * d] = np.abs(staged[:, 2 * d])
        staged = StageQuery(upd.w_q, width=d)(staged, vn)
        q_rows = [np.einsum("a,ac->c", staged[i, :d], upd.w_q)
                  for i in range(n)]
        assert np.array_equal(staged[:, 2 * d + 1 : 3 * d + 1], q_rows)
        hoisted = ScoreAccumulate(None, upd.w_k, upd.w_v, width=d)
        assert np.array_equal(hoisted(staged, vn),
                              self._per_row(upd, staged, vn))

    def test_ratio_update(self):
        upd = RatioUpdate(width=2)
        gn = np.array([[9.0, 9.0, 6.0, 8.0, 2.0]])
        out = upd(gn, None)
        assert np.array_equal(out, [[3.0, 4.0, 0.0, 0.0, 0.0]])

    def test_ratio_update_rejects_zero_mass(self):
        upd = RatioUpdate(width=1)
        with pytest.raises(ValueError, match="mass"):
            upd(np.array([[1.0, 1.0, 0.0]]), None)

    def test_ratio_update_rejects_nan_mass(self):
        upd = RatioUpdate(width=1)
        with pytest.raises(ValueError, match="mass"):
            upd(np.array([[1.0, 1.0, 2.0], [1.0, 1.0, np.nan]]), None)


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
                        CopyPooled(), IdentityGn()),
            MpnnVnLayer(SoftmaxSelectPool(width=2, scale=3.5),
                        SelectorAdvance(width=2,
                                        next_selector=np.array([1.0, -1.0])),
                        ScoreAccumulate(np.eye(2), np.eye(2),
                                        rng.normal(size=(2, 2)), width=2)),
            MpnnVnLayer(Gatv2SelectPool(g2, width=2, scale=2.0),
                        ConstVn(np.ones(5)), IdentityGn()),
            MpnnVnLayer(OracleSelectPool(index=1), KeepVn(),
                        RatioUpdate(width=2)),
            MpnnVnLayer(MeanPool(), CopyPooled(),
                        AffineFromVn(rng.normal(size=(5, 5)),
                                     rng.normal(size=5),
                                     activation="leaky_relu")),
            MpnnVnLayer(MeanPool(), KeepVn(),
                        LinearGn(rng.normal(size=(5, 3)))),
            MpnnVnLayer(MeanPool(), CopyPooled(), IdentityGn()),
            MpnnVnLayer(MeanPool(), SelectorAdvance(width=2),
                        ResolveQueryUpdate(rng.normal(size=(2, 2)), fm,
                                           value_dim=2)),
            MpnnVnLayer(MlpStatsPool(rng.normal(size=(2, 2)),
                                     rng.normal(size=(2, 2)), fm, pieces),
                        KeepVn(),
                        MlpResolveUpdate(rng.normal(size=(2, 2)), fm, pieces,
                                         value_dim=2)),
            MpnnVnLayer(MeanPool(), CopyPooled(),
                        AffineFromVn(rng.normal(size=(5, 5)),
                                     rng.normal(size=5))),
            MpnnVnLayer(MeanPool(), KeepVn(),
                        StageQuery(rng.normal(size=(1, 1)), width=1)),
            MpnnVnLayer(MeanPool(), KeepVn(),
                        ScoreAccumulate(None, rng.normal(size=(1, 1)),
                                        rng.normal(size=(1, 1)), width=1)),
        ]
        return LayerProgram(
            layers=layers, vn_init=np.ones(5), gn_init=("pad", 5),
            gn_out=(0, 2), provenance="round-trip-test",
            metadata={"note": "exercises every descriptor kind"},
        )

    def test_rich_program_covers_every_descriptor_kind(self):
        prog = self._rich_program()
        covered = {slot.kind for layer in prog.layers
                   for slot in (layer.vn_pool, layer.vn_update, layer.gn_update)}
        assert covered == set(Descriptor._registry)
        gn_updates = [layer.gn_update for layer in prog.layers]
        vn_updates = [layer.vn_update for layer in prog.layers]
        assert any(isinstance(u, AffineFromVn) and u.activation is None
                   for u in gn_updates)
        assert any(isinstance(u, SelectorAdvance) and u.next_selector is None
                   for u in vn_updates)
        # the staged accumulation, and the one that recomputes the query
        assert {u.w_q is None for u in gn_updates
                if isinstance(u, ScoreAccumulate)} == {True, False}

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
        if name == "deep_gatv2":
            # the last point is inside the others' hull; the amplification
            # is given so that the bytes do not depend on the libm's log
            X = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0], [0.25, 0.25, 0.25]])
            return compile_deep_vn(w, DeepSimConfig(
                n=5, selection="gatv2", certificate=l1_certificate(X),
                amplification=20.0,
            ))
        fm = attention.exp_feature_map(4, 3, seed=2)
        return compile_kernel_vn(w, KernelSimConfig(feature_map=fm))

    # sha256 of the saved layer-program/v2 documents; a change here is a
    # change of the on-disk format
    PINNED_SHA256 = {
        "rich":
            "bb4b815e52645e808156d9ee9846910cf67253398bd432e78bdffd03d6c65d31",
        "deep_oracle":
            "d59df37e24ffdfe02d966fd2bf4582d8f8604ac69e98e76b719ee47529ecdcd1",
        "deep_gatv2":
            "5cfda202382fde4464196f429c1cb38d6e016bdccd3f4bafd8770c54671df70e",
        "kernel_exact":
            "8896ef5ebd5e3f997f4e6626494356a96b581c0f071215c089eceefe4cbe875c",
    }

    @pytest.mark.parametrize("name", sorted(PINNED_SHA256))
    def test_saved_bytes_are_pinned(self, name, tmp_path):
        path = tmp_path / "program.json"
        save_program(self._pinned_program(name), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.PINNED_SHA256[name]

    # layer-program/v1 documents of the pinned programs, as the v1 writer
    # saved them (tests/fixtures/<name>.v1.json), with their sha256.  The
    # "_gn_msg" ones were written while graph nodes still read the virtual
    # node through a separate message slot and layers still had an (always
    # empty) graph-to-graph slot: every layer carries
    # "gn_msg": {"kind": "copy_vn_msg"} and "gn_gn_msg": null.
    V1_FIXTURE_SHA256 = {
        "rich":
            "3c49eaac098a011673ce1d6cc37058be1e2dd266028d5c20c90b3374c8d59fc5",
        "deep_oracle":
            "9a018f6d548031a376c446823f29aa11766674ce7b283c5437f28679fec25eb9",
        "deep_gatv2":
            "f6c6436f0aabca4a47862773736ba38687df619f232dee356ebdd58d4c34c941",
        "kernel_exact":
            "33e49bba961909178d425bcd97e6494c38267324982422010b00938d85400b73",
        "deep_oracle_gn_msg":
            "c12f7d0fe97763dbc4b6161a60272fd9c60997b21f52a0f1ab88f713a547d598",
        "kernel_exact_gn_msg":
            "f388138b5b113a758ab19c7768fd9bb0dd4c178af85c580385aa86fc0fc05b17",
    }

    @staticmethod
    def _v1_fixture(name):
        return FIXTURES / f"{name}.v1.json"

    @pytest.mark.parametrize("name", sorted(V1_FIXTURE_SHA256))
    def test_v1_fixture_holds_the_v1_bytes(self, name):
        digest = hashlib.sha256(self._v1_fixture(name).read_bytes()).hexdigest()
        assert digest == self.V1_FIXTURE_SHA256[name]
        assert numkit.load_json(self._v1_fixture(name))["format"] == \
            "layer-program/v1"

    # sha256 of the layer-program/v2 documents the v1 fixtures re-save to.
    # The rich and deep fixtures were written before StageQuery: their
    # ScoreAccumulates carry w_q and recompute the query from x, and their
    # deep states are [x | acc | mass], so they keep that old layout.
    V1_RESAVED_SHA256 = {
        "rich":
            "01ac4da75cdf101895bf858ba49a73a71e9bb7b93abecf43286905e878fc3ae9",
        "deep_oracle":
            "dcf4828e756acbdd454d18c84af05c6b3c487e032730660b0849b8324c2673d3",
        "deep_gatv2":
            "a6acada833ad9bd567b2e566610fbe74933ee9c415b1e529481abcce4f4e404f",
        "kernel_exact": PINNED_SHA256["kernel_exact"],
    }

    @pytest.mark.parametrize("name", sorted(V1_FIXTURE_SHA256))
    def test_v1_fixture_resaves_to_the_v2_pin(self, name, tmp_path):
        path = tmp_path / "program.json"
        save_program(load_program(self._v1_fixture(name)), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.V1_RESAVED_SHA256[name.removesuffix("_gn_msg")]

    # the rich program covers the codec, not a runnable width chain, so its
    # fixture is checked by the re-saved bytes above
    @pytest.mark.parametrize("name", ["deep_oracle", "deep_gatv2",
                                      "kernel_exact"])
    def test_v1_fixture_runs_identically(self, name):
        prog = self._pinned_program(name)
        old = load_program(self._v1_fixture(name))
        n = 5
        X = 0.5 * numkit.make_rng(4).normal(size=(n, 3))
        assert np.array_equal(old.execute(star(n), X),
                              prog.execute(star(n), X))

    @pytest.mark.parametrize("name", ["deep_oracle", "kernel_exact"])
    def test_document_with_old_message_slot_runs_identically(self, name):
        prog = self._pinned_program(name)
        old = load_program(self._v1_fixture(f"{name}_gn_msg"))
        assert program_to_json(old) == \
            program_to_json(load_program(self._v1_fixture(name)))
        n = 5
        X = 0.5 * numkit.make_rng(4).normal(size=(n, 3))
        assert np.array_equal(old.execute(star(n), X),
                              prog.execute(star(n), X))

    @pytest.mark.parametrize("name", [*sorted(PINNED_SHA256), "v1_resaved"])
    def test_save_load_save_is_byte_identical(self, name, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        if name == "v1_resaved":
            save_program(load_program(self._v1_fixture("deep_oracle_gn_msg")),
                         first)
        else:
            save_program(self._pinned_program(name), first)
        save_program(load_program(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_deep_document_stores_the_accumulation_once(self, tmp_path):
        n, d = 256, 8
        w = attention.random_weights(d, numkit.make_rng(5))
        prog = compile_deep_vn(w, DeepSimConfig(n=n, selection="oracle"))
        path = tmp_path / "deep.json"
        save_program(prog, path)
        assert path.stat().st_size < 100_000
        kinds = [e["kind"] for e in numkit.load_json(path)["descriptors"]]
        assert kinds.count("score_accumulate") == 1
        again = load_program(path)
        accumulate = again.layers[1].gn_update
        assert isinstance(accumulate, ScoreAccumulate)
        assert all(l.gn_update is accumulate for l in again.layers[1 : n + 1])
        X = 0.3 * numkit.make_rng(6).normal(size=(n, d))
        assert np.array_equal(again.execute(star(n), X),
                              prog.execute(star(n), X))

    def test_equal_descriptors_share_one_entry(self):
        # separate but equal objects, as a v1 document loads them
        blob = program_to_json(LayerProgram(
            layers=[plain_layer(gn_update=LinearGn(np.eye(2)))
                    for _ in range(3)],
            vn_init=np.zeros(2),
        ))
        assert [e["kind"] for e in blob["descriptors"]] == \
            ["mean_pool", "copy_pooled", "linear_gn"]
        assert blob["layers"] == [
            {"vn_pool": 0, "vn_update": 1, "gn_update": 2}] * 3

    def test_graph_to_graph_channel_is_refused(self):
        blob = program_to_json(mean_subtract_program(2))
        blob["layers"][1]["gn_gn_msg"] = {"kind": "identity_pair_msg"}
        with pytest.raises(ValueError, match=r"layers\[1\].*gn_gn_msg"):
            program_from_json(blob)

    @pytest.mark.parametrize("key,value", [
        ("gn_init", ["pad"]), ("gn_init", "foo"), ("gn_out", [0]),
    ])
    def test_malformed_init_or_out_names_the_field(self, key, value):
        blob = program_to_json(self._pinned_program("deep_oracle"))
        blob[key] = value
        with pytest.raises(ValueError, match=key):
            program_from_json(blob)

    @pytest.mark.parametrize("key", ["layers", "vn_init"])
    def test_missing_layers_or_vn_init_names_the_field(self, key):
        blob = program_to_json(self._pinned_program("deep_oracle"))
        del blob[key]
        with pytest.raises(ValueError, match=f"missing field '{key}'"):
            program_from_json(blob)

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
        with pytest.raises(ValueError, match="layer-program/v2.*'other'"):
            program_from_json({"format": "other"})

    @pytest.mark.parametrize("ref", [True, -1, 5, 1.0, "0", [0]],
                             ids=["bool", "negative", "past_end", "float",
                                  "string", "list"])
    def test_bad_descriptor_reference_names_the_slot(self, ref):
        blob = program_to_json(mean_subtract_program(2))
        assert len(blob["descriptors"]) == 5
        blob["layers"][1]["gn_update"] = ref
        with pytest.raises(ValueError, match=r"layers\[1\]\.gn_update"):
            program_from_json(blob)

    def test_v2_document_without_table_is_refused(self):
        blob = program_to_json(mean_subtract_program(2))
        del blob["descriptors"]
        with pytest.raises(ValueError, match="missing field 'descriptors'"):
            program_from_json(blob)

    @pytest.mark.parametrize("entry", [None, 3, [], "mean_pool"])
    def test_table_entry_must_be_an_object(self, entry):
        blob = program_to_json(mean_subtract_program(2))
        blob["descriptors"][1] = entry
        with pytest.raises(ValueError, match=r"descriptors\[1\] must be"):
            program_from_json(blob)

    def test_bad_table_entry_names_its_index(self):
        blob = program_to_json(mean_subtract_program(2))
        blob["descriptors"][2] = {"kind": "no_such_thing"}
        with pytest.raises(ValueError,
                           match=r"descriptors\[2\]: unknown descriptor kind"):
            program_from_json(blob)

    @pytest.mark.parametrize("matrix", [
        {"values": [1.0]},
        [1.0],
        {"rows": 1.0, "cols": 1, "values": [1.0]},
        {"rows": 1, "cols": 1, "values": "1.0"},
    ], ids=["no_size", "list", "float_size", "string_values"])
    def test_malformed_matrix_names_entry_and_field(self, matrix):
        blob = program_to_json(LayerProgram(
            layers=[plain_layer(gn_update=LinearGn(np.eye(2)))],
            vn_init=np.zeros(2)))
        assert blob["descriptors"][2]["kind"] == "linear_gn"
        blob["descriptors"][2]["matrix"] = matrix
        with pytest.raises(ValueError,
                           match=r"descriptors\[2\]: linear_gn: field 'matrix'"):
            program_from_json(blob)

    @pytest.mark.parametrize("case", ["feature_map", "params", "piece"])
    def test_blob_that_is_not_an_object_names_entry_and_field(self, case):
        w_k, w_v = np.eye(2), np.eye(2)
        fm = attention.elu_feature_map()
        pool = (FeatureStatsPool(w_k, w_v, fm) if case == "feature_map"
                else MlpStatsPool(w_k, w_v, fm, unfitted_pieces()))
        blob = program_to_json(LayerProgram(
            layers=[plain_layer(vn_pool=pool)], vn_init=np.zeros(2)))
        entry = blob["descriptors"][0]
        if case == "feature_map":
            entry["feature_map"] = [1.0]
            where = r"feature_stats_pool: field 'feature_map': feature map"
        elif case == "params":
            entry["pieces"]["recip"]["params"] = [1.0]
            where = (r"mlp_stats_pool: field 'pieces': KernelPieces: "
                     r"field 'recip': FittedPiece: field 'params': mlp weight")
        else:
            entry["pieces"]["sq"] = [1.0]
            where = (r"mlp_stats_pool: field 'pieces': KernelPieces: "
                     r"field 'sq': FittedPiece")
        with pytest.raises(ValueError, match=(
                rf"descriptors\[0\]: {where} payload must be an object, "
                r"got list")):
            program_from_json(blob)

    @pytest.mark.parametrize("blob", [[], "feature_map", 3, None])
    def test_every_leaf_codec_refuses_a_non_object(self, blob):
        for _, decode in mpnnvn._LEAF_CODECS.values():
            with pytest.raises(ValueError, match="payload must be an object"):
                decode(blob)

    @pytest.mark.parametrize("widths", [None, 3, "x", [1, None], [1, 2.5],
                                        [True, 1]])
    def test_mlp_widths_must_be_a_list_of_integers(self, widths):
        blob = mlp.params_to_json(unfitted_pieces().sq.params)
        blob["widths"] = widths
        with pytest.raises(ValueError, match="mlp width"):
            mlp.params_from_json(blob)

    @pytest.mark.parametrize("slope", [None, [], {}, True, "0.2"])
    def test_gatv2_slope_must_be_a_number(self, slope):
        blob = attention.gatv2_to_json(attention.l1_score(2))
        blob["slope"] = slope
        with pytest.raises(ValueError, match="gatv2 slope must be a number"):
            attention.gatv2_from_json(blob)

    @pytest.mark.parametrize("seed", [{"x": []}, -5, 1.5, [1], "3", True])
    def test_provenance_seed_must_be_a_non_negative_integer(self, seed):
        fm_blob = attention.feature_map_to_json(
            attention.exp_feature_map(4, 2, 7))
        mlp_blob = mlp.params_to_json(unfitted_pieces().sq.params)
        for blob, decode, what in (
                (fm_blob, attention.feature_map_from_json, "feature map"),
                (mlp_blob, mlp.params_from_json, "mlp weight")):
            assert decode(blob).seed == blob["seed"]
            for ok in (None, 0):
                assert decode({**blob, "seed": ok}).seed == ok
            with pytest.raises(ValueError, match=f"{what} seed must be"):
                decode({**blob, "seed": seed})

    @pytest.mark.parametrize("algorithm", ["mt19937", "PCG64", None, 3])
    def test_other_rng_algorithm_is_refused(self, algorithm):
        fm_blob = attention.feature_map_to_json(
            attention.exp_feature_map(4, 2, 7))
        mlp_blob = mlp.params_to_json(unfitted_pieces().sq.params)
        for blob, decode, what in (
                (fm_blob, attention.feature_map_from_json, "feature map"),
                (mlp_blob, mlp.params_from_json, "mlp weight")):
            with pytest.raises(ValueError,
                               match=f"{what} rng_algorithm must be 'pcg64'"):
                decode({**blob, "rng_algorithm": algorithm})

    def test_bad_seed_in_a_document_names_entry_and_field(self):
        blob = program_to_json(self._pinned_program("kernel_exact"))
        j = next(j for j, e in enumerate(blob["descriptors"])
                 if e["kind"] == "feature_stats_pool")
        blob["descriptors"][j]["feature_map"]["seed"] = {"x": []}
        with pytest.raises(ValueError, match=(
                rf"descriptors\[{j}\]: feature_stats_pool: field "
                r"'feature_map': feature map seed must be an integer")):
            program_from_json(blob)

    @pytest.mark.parametrize("value", [3, None, [], {}])
    def test_provenance_must_be_a_string(self, value):
        blob = program_to_json(self._pinned_program("deep_oracle"))
        blob["provenance"] = value
        with pytest.raises(ValueError, match="provenance must be a string"):
            program_from_json(blob)

    @pytest.mark.parametrize("value", [[], None, "deep", 4])
    def test_metadata_must_be_an_object(self, value):
        blob = program_to_json(self._pinned_program("kernel_exact"))
        blob["metadata"] = value
        with pytest.raises(ValueError, match="metadata must be an object"):
            program_from_json(blob)

    def test_missing_provenance_and_metadata_keep_their_defaults(self):
        blob = program_to_json(self._pinned_program("kernel_exact"))
        del blob["provenance"], blob["metadata"]
        prog = program_from_json(blob)
        assert prog.provenance == "unknown" and prog.metadata == {}

    @pytest.mark.parametrize("name", ["n", "d"])
    @pytest.mark.parametrize("value", ["4", 0, -1, 1.5, 5.0, True, None,
                                       [5], {}])
    def test_deep_program_node_count_and_dimension_are_checked(self, name,
                                                               value):
        blob = program_to_json(self._pinned_program("deep_oracle"))
        blob["metadata"][name] = value
        with pytest.raises(ValueError, match=(
                rf"metadata field '{name}' of a deep program must be an "
                r"integer >= 1")):
            program_from_json(blob)

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

    def test_unknown_descriptor_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown descriptor kind"):
            descriptor_from_json({"kind": "no_such_thing"})

    @pytest.mark.parametrize("kind", [{}, ["mean_pool"], 3, None, True])
    def test_kind_that_is_not_a_string_is_refused(self, kind):
        with pytest.raises(ValueError, match="field 'kind' must be a string"):
            descriptor_from_json({"kind": kind})

    @pytest.mark.parametrize("tp,value", [
        (int, [1.0]), (int, {}), (int, True), (int, 1.5), (int, "2"),
        (float, [1.0]), (float, {}), (float, False), (float, "0.5"),
        (float, 10**400), (str, 3), (str, []), (str, True),
    ])
    def test_scalar_decoder_refuses_other_json_values(self, tp, value):
        with pytest.raises(ValueError, match="width"):
            numkit.scalar_from_json(value, tp, "width")

    @pytest.mark.parametrize("value", [[1.0], -1, 0, 2.0, False])
    def test_bad_width_in_a_document_names_entry_and_field(self, value):
        blob = numkit.load_json(self._v1_fixture("rich"))
        pool = blob["layers"][1]["vn_pool"]
        assert pool["kind"] == "softmax_select_pool"
        pool["width"] = value
        with pytest.raises(ValueError, match=(
                r"layers\[1\]\.vn_pool: softmax_select_pool: "
                r"field 'width': value must be")):
            program_from_json(blob)
        resaved = program_to_json(load_program(self._v1_fixture("rich")))
        entry = next(j for j, e in enumerate(resaved["descriptors"])
                     if e["kind"] == "softmax_select_pool")
        resaved["descriptors"][entry]["width"] = value
        with pytest.raises(ValueError, match=(
                rf"descriptors\[{entry}\]: softmax_select_pool: "
                r"field 'width'")):
            program_from_json(resaved)

    def test_an_index_may_be_zero_but_not_negative(self):
        pool = descriptor_from_json({"kind": "oracle_select_pool", "index": 0})
        assert pool.index == 0
        with pytest.raises(ValueError, match="'index': value must be at "
                                             "least 0, got -1"):
            descriptor_from_json({"kind": "oracle_select_pool", "index": -1})

    # every pinned document as v2; all but "rich" (one of each descriptor
    # kind, not a program meant to run) run on the rows below
    FUZZ_X = 0.5 * numkit.make_rng(4).normal(size=(5, 3))
    FUZZ_VALUES = [None, [], "x", -1, 0, 1.5, {}, [1.0], True, 1e9]

    @staticmethod
    def _leaves(blob, path=()):
        """Paths to the scalars and number lists inside a JSON value."""
        if isinstance(blob, dict):
            for key, value in blob.items():
                yield from TestPersistence._leaves(value, path + (key,))
        elif isinstance(blob, list) and blob and not all(
                isinstance(v, (int, float)) for v in blob):
            for i, value in enumerate(blob):
                yield from TestPersistence._leaves(value, path + (i,))
        else:
            yield path

    @given(st.sampled_from(sorted(PINNED_SHA256)), st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_leaf_loads_and_runs_or_names_its_place(self, name,
                                                            data):
        blob = program_to_json(self._pinned_program(name))
        j = data.draw(st.integers(0, len(blob["descriptors"]) - 1))
        path = data.draw(st.sampled_from(
            list(self._leaves(blob["descriptors"][j]))))
        value = data.draw(st.sampled_from(self.FUZZ_VALUES))
        mutated = copy.deepcopy(blob)
        parent = mutated["descriptors"][j]
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        try:
            prog = program_from_json(mutated)
        except ValueError as exc:
            field_named = "kind" if path[0] == "kind" else f"'{path[0]}'"
            assert f"descriptors[{j}]: " in str(exc)
            assert field_named in str(exc)
            return
        if name != "rich":
            with np.errstate(all="ignore"):
                prog.execute(star(5), self.FUZZ_X)

    def test_duplicate_kind_registration_rejected(self):
        with pytest.raises(TypeError, match="duplicate"):
            class Clash(Descriptor):
                kind = "mean_pool"
