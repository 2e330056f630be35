"""Tests for the heterogeneous virtual-node layer engine."""

import hashlib
import json
import math
import pathlib
import re
import time
import tracemalloc

import copy
import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_network
from test_mlp import random_mlp
from traces import gn_matrix, run_stepwise
from vnlab import attention, deepsets, mlp, mpnnvn, numkit
from vnlab.constructions import (
    DeepSimConfig,
    FittedPiece,
    KernelPieces,
    KernelSimConfig,
    MlpResolveUpdate,
    MlpStatsPool,
    compile_deep_vn,
    compile_kernel_vn,
    make_certified_instance,
)
from vnlab.graphs import Graph, add_virtual_node
from vnlab.mpnnvn import (
    AffineFromVn,
    ConstVn,
    CopyPooled,
    Descriptor,
    FeatureStatsPool,
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
from vnlab.separability import SeparabilityCertificate, l1_certificate

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def reindented(raw: bytes) -> bytes:
    """A JSON document's content re-encoded with indent=2 and sorted keys,
    the layout the content pins below are taken in."""
    return (json.dumps(json.loads(raw), indent=2, sort_keys=True)
            + "\n").encode()


def star(n):
    """n graph nodes plus one virtual node adjacent to all of them."""
    return add_virtual_node(Graph(n, ()))


def unfitted_pieces():
    """Kernel pieces with random networks; nothing is fit."""

    def piece(name, seed, lo, hi):
        spec = mlp.MlpSpec(widths=(1, 3, 1), activation="elu")
        params = random_mlp(spec, numkit.make_rng(seed))
        params.seed = seed
        return FittedPiece(name=name, params=params, lo=lo, hi=hi,
                           sup_error=0.5, target=0.25)

    return KernelPieces(
        kind="exp_features", sq=piece("sq", 6, -2.2, 2.2),
        expish=piece("exp", 7, -3.0, 1.5), recip=piece("recip", 8, 0.5, 4.0),
        bounds={"k_abs": 1.5, "q_abs": 1.25, "v_abs": 0.75,
                "phi_k_max": 2.0, "phi_q_max": 2.5, "s_max": 3.0,
                "m_abs": 1.0, "num_abs": 2.0, "inv_max": 2.0},
    )


def as_blocks(gn, d):
    """The columns [x | acc | mass | q] of the matrix ``gn`` as named views
    (q only when ``gn`` is at least 3d+1 wide; later columns left out)."""
    cuts = {"x": (0, d), "acc": (d, 2 * d), "mass": (2 * d, 2 * d + 1),
            "q": (2 * d + 1, 3 * d + 1)}
    return {name: gn[:, lo:hi] for name, (lo, hi) in cuts.items()
            if hi <= gn.shape[1]}


def v2_document(prog):
    """``prog`` as the ``layer-program/v2`` writer laid it out: one entry per
    layer, without ``repeat``, and the layout recorded as ``gn_init`` and
    ``gn_out`` (``TestPersistence`` checks this against the v2 fixtures).
    That writer had no ``selectors`` table, and wrote a softmax pool with an
    additive ``score`` as the kind ``gatv2_select_pool``."""
    blob = program_to_json(prog)
    for entry in blob["descriptors"]:
        if entry["kind"] == "softmax_select_pool":
            assert entry.pop("selectors") is None
            score = entry.pop("score")
            if score is not None:
                entry.update(kind="gatv2_select_pool", score=score)
    layers = [{slot: run[slot] for slot in ("vn_pool", "vn_update",
                                            "gn_update")}
              for run in blob["layers"] for _ in range(run["repeat"])]
    return blob | {"format": "layer-program/v2", "layers": layers} \
        | mpnnvn._recorded_layout(prog)


def certified_program(selection, X, w, amplification=30.0):
    """A deep program selecting the unit rows of ``X``, certified without an
    LP: "softmax" by a bilinear certificate whose directions are the rows
    themselves (a row clears another by 1 - their dot product), "gatv2" by
    ``l1_certificate``.  The amplification is given, so no libm call sets
    it."""
    if selection == "softmax":
        dots = X @ X.T
        np.fill_diagonal(dots, -np.inf)
        cert = SeparabilityCertificate(directions=X,
                                       margins=1.0 - dots.max(axis=1),
                                       amplification=amplification)
    else:
        cert = l1_certificate(X)
    return compile_deep_vn(w, DeepSimConfig(
        n=X.shape[0], selection=selection, certificate=cert,
        amplification=amplification))


def selection_run(prog, X):
    """(output, every layer's selection weights) of one run on ``X``."""
    weights = []
    final = run_program(prog.initial_state(X), prog, observe=lambda ks, s, v, w:
                        w is not None and weights.extend(w))
    return prog.extract(final), weights


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
        s = NodeState({"x": X}, np.zeros(2))
        out, _ = run_layer(s, plain_layer(vn_pool=MeanPool()), 1)
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
        out, _ = run_layer(NodeState({"x": X}, old_vn), layer, 1)
        assert np.array_equal(out.vn, np.array([1.5]))  # updated
        assert np.array_equal(out.gn["x"], X + 7.0)  # but nodes saw 7, not 1.5

    def test_const_vn(self):
        s = NodeState({"x": np.ones((2, 3))}, np.zeros(1))
        out, _ = run_layer(
            s,
            plain_layer(vn_update=ConstVn(np.array([5.0, 5.0, 5.0]))),
            1,
        )
        assert np.array_equal(out.vn, np.array([5.0, 5.0, 5.0]))

    def test_keep_vn(self):
        s = NodeState({"x": np.ones((2, 2))}, np.array([3.0, 4.0]))
        out, _ = run_layer(s, plain_layer(vn_update=KeepVn()), 1)
        assert np.array_equal(out.vn, s.vn)

    def test_oracle_select_pool_picks_one_row(self):
        X = np.array([[1.0, 0.0], [2.0, 5.0], [3.0, 1.0]])
        out, weights = run_layer(
            NodeState({"x": X}, np.zeros(2)),
            plain_layer(vn_pool=OracleSelectPool(index=1)),
            1,
        )
        assert np.array_equal(out.vn, X[1])
        assert np.array_equal(weights, [0.0, 1.0, 0.0])

    def test_oracle_select_pool_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            run_layer(NodeState({"x": np.ones((2, 1))}, np.zeros(1)),
                      plain_layer(vn_pool=OracleSelectPool(index=5)), 1)

    def test_round_indexed_oracle_pool_selects_row_k_minus_1(self):
        # without an index, layer k selects row k - 1, so one pool serves
        # every round; a fixed index ignores the layer number
        X = np.array([[1.0, 0.0], [2.0, 5.0], [3.0, 1.0]])
        pool = OracleSelectPool()
        assert pool.index is None
        for k in (1, 2, 3):
            row, weights = pool(np.zeros(2), {"x": X}, k)
            assert np.array_equal(row, X[k - 1])
            assert np.array_equal(weights, np.eye(3)[k - 1])
        for k in (0, 4):
            with pytest.raises(ValueError, match=(
                    rf"^selection index {k - 1} out of range$")):
                pool(np.zeros(2), {"x": X}, k)
        row, _ = OracleSelectPool(index=1)(np.zeros(2), {"x": X}, 3)
        assert np.array_equal(row, X[1])

    def test_softmax_select_vanishing_scale_is_mean(self):
        # a zero scale is refused; at 1e-300 every score rounds to the same
        # exp, so the weights are exactly uniform
        d = 2
        gn = np.array([[1.0, 0.0, 9.0, 9.0, 0.0],
                       [0.0, 1.0, 8.0, 8.0, 0.0],
                       [1.0, 1.0, 7.0, 7.0, 0.0]])
        vn = np.zeros(5)
        vn[d:2 * d] = [1.0, 0.0]
        out, weights = run_layer(
            NodeState({"x": gn}, vn),
            plain_layer(vn_pool=SoftmaxSelectPool(width=d, scale=1e-300)),
            1,
        )
        assert np.allclose(weights, np.full(3, 1 / 3), atol=1e-15)
        assert np.allclose(out.vn, gn.mean(axis=0), atol=1e-15)

    @pytest.mark.parametrize("scale", [0.0, -1.0, -1e6, np.nan, np.inf])
    def test_selection_pool_scale_must_be_finite_and_positive(self, scale):
        # a -1e6 scale once loaded and ran, selecting the lowest-scoring
        # row, and its weight bound would overflow math.exp
        for pool in (SoftmaxSelectPool, functools.partial(
                SoftmaxSelectPool, score=attention.l1_score(2))):
            with pytest.raises(ValueError, match=(
                    r"select_pool: field 'scale' must be finite and "
                    rf"positive, got {scale}")):
                pool(width=2, scale=scale)
        blob = program_to_json(LayerProgram(
            layers=[plain_layer(vn_pool=SoftmaxSelectPool(width=2, scale=3.0))],
            vn_init=np.zeros(5)))
        blob["descriptors"][0]["scale"] = scale
        with pytest.raises(ValueError, match=(
                r"^descriptors\[0\]: softmax_select_pool: field 'scale'")):
            program_from_json(blob)

    def test_softmax_select_large_scale_approaches_argmax(self):
        d = 2
        gn = np.array([[1.0, 0.0, 0.5, 0.5, 0.0],
                       [0.0, 1.0, 0.4, 0.4, 0.0],
                       [0.3, 0.3, 0.3, 0.3, 0.0]])
        vn = np.zeros(5)
        vn[d:2 * d] = [1.0, 0.0]  # selector aligned with row 0
        _, w = run_layer(
            NodeState({"x": gn}, vn),
            plain_layer(vn_pool=SoftmaxSelectPool(width=d, scale=200.0)),
            1,
        )
        assert w[0] > 1.0 - 1e-12
        assert np.all(w >= 0.0) and abs(w.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("score", [None, attention.l1_score(2)],
                             ids=["bilinear", "l1"])
    def test_table_pool_reads_row_k_minus_1(self, score):
        # layer k scores against row k - 1 of the table, bitwise as against
        # that row staged in the virtual node; the staged slot is not read
        gn = {"x": numkit.make_rng(2).normal(size=(4, 2))}
        table = numkit.make_rng(3).normal(size=(4, 2))
        pool = SoftmaxSelectPool(width=2, scale=3.0, score=score,
                                 selectors=table)
        staged = SoftmaxSelectPool(width=2, scale=3.0, score=score)
        for k in (1, 2, 3, 4):
            vn = np.concatenate([[9.0, 9.0], table[k - 1], [0.0]])
            got, weights = pool(np.full(5, np.nan), gn, k)
            want, want_weights = staged(vn, gn, k)
            assert np.array_equal(got, want)
            assert np.array_equal(weights, want_weights)

    def test_selector_advance_layout(self):
        adv = SelectorAdvance(width=2, next_selector=np.array([3.0, 4.0]))
        newvn = adv(np.zeros(5), np.array([10.0, 20.0, 99.0, 99.0, 99.0]))
        assert np.array_equal(newvn, [10.0, 20.0, 3.0, 4.0, 0.0])

    def test_selector_advance_without_next_zeroes_slot(self):
        adv = SelectorAdvance(width=2, next_selector=None)
        newvn = adv(np.zeros(5), np.array([10.0, 20.0, 99.0, 99.0, 99.0]))
        assert np.array_equal(newvn, [10.0, 20.0, 0.0, 0.0, 0.0])

    def test_next_selector_must_have_width_values(self):
        # a 4-value selector in a width-3 gatv2 document once loaded and ran
        # on a virtual-node state shifted by one channel
        with pytest.raises(ValueError, match=(
                r"^selector_advance: field 'next_selector' has 4 values, but "
                r"field 'width' is 3$")):
            SelectorAdvance(width=3, next_selector=np.ones(4))
        blob = program_to_json(LayerProgram(
            layers=[plain_layer(vn_update=SelectorAdvance(
                width=2, next_selector=np.ones(2)))],
            vn_init=np.zeros(5)))
        blob["descriptors"][1]["next_selector"] = \
            numkit.vector_to_json(np.ones(3))
        with pytest.raises(ValueError, match=(
                r"^descriptors\[1\]: selector_advance: field 'next_selector' "
                r"has 3 values")):
            program_from_json(blob)

    def test_linear_gn(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        out, _ = run_layer(NodeState({"x": X}, np.zeros(1)),
                           plain_layer(gn_update=LinearGn(A)), 1)
        assert np.array_equal(out.gn["x"], X @ A)

    def test_affine_from_vn_with_activation(self):
        X = np.array([[1.0], [-10.0]])
        layer = MpnnVnLayer(
            vn_pool=MeanPool(), vn_update=KeepVn(),
            gn_update=AffineFromVn(np.array([[1.0]]), np.array([2.0]),
                                   activation="relu"),
        )
        out, _ = run_layer(NodeState({"x": X}, np.array([1.0])), layer, 1)
        # relu(x + 1 + 2)
        assert np.array_equal(out.gn["x"], [[4.0], [0.0]])


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

    def test_program_is_frozen(self):
        # runs, layout and n are derived from the layers once, so a program
        # with other layers is a new program
        w = attention.random_weights(3, numkit.make_rng(0))
        prog = compile_deep_vn(w, DeepSimConfig(n=5, selection="oracle"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            prog.layers = prog.layers[:1]
        longer = dataclasses.replace(prog, layers=prog.layers + [plain_layer()])
        assert [run.repeat for run in prog.runs] == [1, 4, 1, 1]
        assert [run.repeat for run in longer.runs] == [1, 4, 1, 1, 1]
        assert longer.n == prog.n == 5

    def test_permutation_equivariance(self):
        g = star(6)
        rng = numkit.make_rng(1)
        X = rng.normal(size=(6, 3))
        perm = rng.permutation(6)
        prog = mean_subtract_program(3)
        out = prog.execute(g, X)
        out_p = prog.execute(g, X[perm])
        assert np.allclose(out_p, out[perm], atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_initial_state_refuses_non_finite_input(self, bad):
        X = 0.5 * numkit.make_rng(4).normal(size=(5, 3))
        X[1, 2] = bad
        X[3, 0] = np.nan  # later in row-major order: not the one named
        w = attention.random_weights(3, numkit.make_rng(0))
        deep = compile_deep_vn(w, DeepSimConfig(n=5, selection="oracle"))
        for prog in (mean_subtract_program(3), deep):
            with pytest.raises(ValueError, match=(
                    rf"^input X contains non-finite entries, the first {bad} "
                    r"at \(1, 2\)$")):
                prog.execute(star(5), X)

    def test_deep_state_splits_into_named_blocks(self):
        w = attention.random_weights(2, numkit.make_rng(0))
        prog = compile_deep_vn(w, DeepSimConfig(n=3, selection="oracle"))
        X = np.arange(6.0).reshape(3, 2)
        s = prog.initial_state(X)
        assert {k: v.shape for k, v in s.gn.items()} == {
            "x": (3, 2), "acc": (3, 2), "mass": (3, 1), "q": (3, 2)}
        assert np.array_equal(s.gn["x"], X) and s.gn["x"] is not X
        assert all(not v.any() for k, v in s.gn.items() if k != "x")
        assert prog.layout == {"x": 2, "acc": 2, "mass": 1, "q": 2}

    def test_pad_that_does_not_split_is_refused_at_construction(self):
        # the layout comes from the layers; a document recording a pad that
        # does not split into their blocks is refused while it is built
        w = attention.random_weights(2, numkit.make_rng(0))
        blob = v2_document(
            compile_deep_vn(w, DeepSimConfig(n=3, selection="oracle")))
        assert blob["gn_init"] == ["pad", 7]
        blob["gn_init"] = ["pad", 8]
        with pytest.raises(ValueError, match=(
                r"^gn_init \['pad', 8\] disagrees with the layers, which "
                r"imply \['pad', 7\]$")):
            program_from_json(blob)
        blob["gn_init"] = ["pad", 6]  # holds x, acc and mass, but not q
        with pytest.raises(ValueError, match=(
                r"^layers\[0\]\.gn_update: stage_query needs graph-node "
                r"block 'q', which a state initialized by \('pad', 6\) does "
                r"not hold for width 2$")):
            program_from_json(blob)

    def test_deep_node_count_is_checked_at_construction(self):
        # the node count is the number of selection layers, whatever the
        # metadata says (an "n": "5" once refused every input), and a
        # layout needs at least one
        w = attention.random_weights(3, numkit.make_rng(0))
        prog = compile_deep_vn(w, DeepSimConfig(n=5, selection="oracle"))
        relabelled = dataclasses.replace(prog, provenance="hand-built",
                                   metadata={"compiler": "deep", "n": "5"})
        assert relabelled.n == 5
        X = 0.5 * numkit.make_rng(1).normal(size=(5, 3))
        assert np.array_equal(relabelled.execute(star(5), X),
                              prog.execute(star(5), X))
        unselected = [MpnnVnLayer(MeanPool(), l.vn_update, l.gn_update)
                      for l in prog.layers]
        with pytest.raises(ValueError, match=(
                r"^layers: a program with graph-node blocks \['x', 'acc', "
                r"'mass', 'q'\] needs a selection layer per input row, and "
                r"its 7 layers hold none$")):
            dataclasses.replace(prog, layers=unselected)

    def test_round_indexed_pool_past_n_is_refused(self):
        # an oracle program with a plain layer put before its rounds once
        # built, ran its 5 rounds and stopped on "selection index 5 out of
        # range", naming no layer; a fixed-index pool may stand anywhere
        w = attention.random_weights(3, numkit.make_rng(0))
        X = numkit.make_rng(1).normal(size=(5, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        for prog in (compile_deep_vn(w, DeepSimConfig(n=5)),
                     certified_program("softmax", X, w)):
            kind = prog.layers[0].vn_pool.kind
            with pytest.raises(ValueError, match=(
                    rf"^layers\[5\]\.vn_pool: round-indexed {kind} at "
                    r"layer 6, past n=5$")):
                dataclasses.replace(prog, layers=[plain_layer()] + prog.layers)
        fixed = [plain_layer()] + [
            MpnnVnLayer(OracleSelectPool(index=k), l.vn_update, l.gn_update)
            for k, l in enumerate(prog.layers[:5])] + prog.layers[5:]
        assert dataclasses.replace(prog, layers=fixed).n == 5

    def test_selector_table_must_be_a_finite_n_by_width_matrix(self):
        w = attention.random_weights(3, numkit.make_rng(0))
        X = numkit.make_rng(1).normal(size=(5, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        prog = certified_program("gatv2", X, w)
        pool = prog.layers[0].vn_pool

        def with_table(table):
            other = dataclasses.replace(pool, selectors=table)
            return dataclasses.replace(prog, layers=[
                MpnnVnLayer(other, l.vn_update, l.gn_update)
                if l.vn_pool is pool else l for l in prog.layers])

        for table in (X[:4], np.hstack([X, X])):
            with pytest.raises(ValueError, match=(
                    r"^layers\[0\]\.vn_pool: softmax_select_pool field "
                    rf"'selectors' is \({table.shape[0]}, {table.shape[1]}\), "
                    r"not \(n, width\) = \(5, 3\)$")):
                with_table(table)
        bad = X.copy()
        bad[2, 1] = np.inf
        match = (r"^layers\[0\]\.vn_pool: softmax_select_pool field "
                 r"'selectors' contains non-finite entries, the first inf "
                 r"at \(2, 1\)$")
        with pytest.raises(ValueError, match=match):
            with_table(bad)
        # JSON documents may spell Infinity and NaN; the loader refuses
        # them before any program is built
        blob = json.loads(json.dumps(program_to_json(prog)))
        blob["descriptors"][0]["selectors"]["values"][7] = float("inf")
        with pytest.raises(ValueError, match=(
                r"^descriptors\[0\]: softmax_select_pool: field 'selectors': "
                r"matrix payload contains non-finite entries, the first inf "
                r"at \(2, 1\)$")):
            program_from_json(blob)
        # without a layout no row count is known, but the width is
        with pytest.raises(ValueError, match=(
                r"^layers\[0\]\.vn_pool: softmax_select_pool field "
                r"'selectors' is \(3, 3\), not \(n, width\) = \(3, 2\)$")):
            LayerProgram(layers=[plain_layer(vn_pool=SoftmaxSelectPool(
                width=2, selectors=np.ones((3, 3))))], vn_init=np.zeros(5))

    def test_deep_dimension_must_be_the_x_block_width(self):
        # the metadata's d is an echo; every deep descriptor must have the
        # one width of block x
        w = attention.random_weights(3, numkit.make_rng(0))
        prog = compile_deep_vn(w, DeepSimConfig(n=5, selection="oracle"))
        assert dataclasses.replace(prog, metadata={"d": 2}).layout["x"] == 3
        last = prog.layers[-1]
        layers = prog.layers[:-1] + [MpnnVnLayer(
            last.vn_pool, last.vn_update, RatioUpdate(width=2))]
        with pytest.raises(ValueError, match=(
                r"^layers\[6\]\.gn_update: ratio_update has width 2, but "
                r"the program's deep descriptors have width 3$")):
            dataclasses.replace(prog, layers=layers)

    def test_deep_program_without_a_deep_descriptor_is_refused(self):
        # it once loaded, and returned X unchanged as its "attention"; with
        # no layers the document's pad disagrees with them
        blob = numkit.load_json(FIXTURES / "deep_oracle.v1.json")
        blob["layers"] = []
        match = (r"^gn_init \['pad', 7\] disagrees with the layers, which "
                 r"imply 'identity'$")
        with pytest.raises(ValueError, match=match):
            program_from_json(blob)
        blob["provenance"] = "hand-built"
        del blob["metadata"]["compiler"]
        with pytest.raises(ValueError, match=match):
            program_from_json(blob)

    def test_block_layout_refuses_other_input_widths(self):
        # a 5-column X once ran, columns 3-4 landing in acc, and the output
        # was 0.284 off self_attention on the first three columns
        w = attention.random_weights(3, numkit.make_rng(0))
        prog = compile_deep_vn(w, DeepSimConfig(n=5, selection="oracle"))
        X = 0.5 * numkit.make_rng(1).normal(size=(5, 5))
        for cols in (5, 2):
            with pytest.raises(ValueError, match=(
                    rf"^input X has {cols} columns, but the program's x "
                    r"block is 3 wide$")):
                prog.execute(star(5), X[:, :cols])
        out = prog.execute(star(5), X[:, :3])
        np.testing.assert_allclose(
            out, attention.self_attention(X[:, :3], w), atol=1e-12)

    def test_pad_width_too_small(self):
        # a document's pad narrower than block x: the first slot reading x
        # is named
        w = attention.random_weights(3, numkit.make_rng(0))
        blob = v2_document(
            compile_deep_vn(w, DeepSimConfig(n=5, selection="oracle")))
        blob["gn_init"] = ["pad", 2]
        with pytest.raises(ValueError, match=(
                r"^layers\[0\]\.vn_pool: oracle_select_pool needs "
                r"graph-node block 'x', which a state initialized by "
                r"\('pad', 2\) does not hold for width 3$")):
            program_from_json(blob)

    def test_gn_out_slice(self):
        # the output is block x: all of it for a program without deep
        # descriptors, and a document asking for other columns is refused
        g = star(2)
        X = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        prog = LayerProgram(layers=[], vn_init=np.zeros(1))
        assert np.array_equal(prog.execute(g, X), X)
        assert "gn_out" not in program_to_json(prog)
        blob = v2_document(prog)
        assert (blob["gn_init"], blob["gn_out"]) == ("identity", None)
        blob["gn_out"] = [1, 3]
        with pytest.raises(ValueError, match=(
                r"^gn_out \[1, 3\] disagrees with the layers, which imply "
                r"None$")):
            program_from_json(blob)

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
        s0 = NodeState({"x": gn}, vn)
        seen = []
        final = run_program(s0, prog, observe=lambda ks, s, v, w:
                            seen.append((ks, s, w)))
        return s0, prog, seen, final

    def test_trace_records_every_state(self):
        s0, prog, seen, final = self._observed_selection_run()
        assert [ks for ks, _, _ in seen] == [range(1, 2), range(2, 3),
                                            range(3, 4)]
        s = s0
        for (ks, state, _), layer in zip(seen, prog.layers):
            s, _ = run_layer(s, layer, ks[0])
            assert list(state.gn) == list(s.gn) == ["x"]
            assert np.array_equal(state.gn["x"], s.gn["x"])
            assert np.array_equal(state.vn, s.vn)
        assert seen[-1][1] is final

    def test_trace_captures_selection_weights(self):
        _, _, seen, _ = self._observed_selection_run()
        assert seen[0][2] is None  # plain pool
        scores = np.exp([1.0, 2.0, 3.0])
        assert np.allclose(seen[1][2], [scores / scores.sum()], atol=1e-15)
        assert np.array_equal(seen[2][2], [[0.0, 0.0, 1.0]])

    def test_empty_program_never_observes(self):
        s0 = NodeState({"x": np.ones((3, 2))}, np.zeros(2))
        seen = []
        empty = LayerProgram(layers=[], vn_init=np.zeros(2))
        out = run_program(s0, empty,
                          observe=lambda *args: seen.append(args))
        assert seen == []
        assert out is s0

    @staticmethod
    def _compiled_case(name):
        """(program, rows) for one program of each compiler."""
        rng = numkit.make_rng(8)
        X = rng.uniform(-0.2, 0.2, size=(5, 3))
        w = attention.random_weights(3, rng)
        if name == "kernel_exp":
            fm = attention.exp_feature_map(4, 3, seed=2)
            return compile_kernel_vn(w, KernelSimConfig(feature_map=fm)), X
        if name == "kernel_elu":
            return compile_kernel_vn(w, KernelSimConfig(
                feature_map=attention.elu_feature_map())), X
        if name == "kernel_mlp":
            return (load_program(FIXTURES / "kernel_mlp_trained.v2.json"),
                    X[:, :2])
        if name == "deepsets":
            net = random_network((3, 4, 2), rng)
            return deepsets.compile_network(net, 5), X
        if name == "deep_softmax":
            X, cert = make_certified_instance(5, 3, rng)
        else:
            cert = None if name == "deep_oracle" else l1_certificate(X)
        return compile_deep_vn(w, DeepSimConfig(
            n=5, selection=name[len("deep_"):], certificate=cert)), X

    @pytest.mark.parametrize("name", [
        "kernel_exp", "kernel_elu", "kernel_mlp", "deep_oracle",
        "deep_softmax", "deep_gatv2", "deepsets"])
    def test_every_layer_hands_on_contiguous_float64_states(self, name):
        # states are not coerced between layers, so each descriptor must
        # return arrays of the state's kind itself; deep programs run on
        # the [x | acc | mass | q] blocks, every other one on x alone
        prog, X = self._compiled_case(name)
        blocks = ["x", "acc", "mass", "q"] if name.startswith("deep_") \
            else ["x"]
        seen = []

        def check(ks, state, vn_rows, weights):
            seen.extend(ks)
            assert list(state.gn) == blocks
            arrays = [(block, 2) for block in state.gn.values()]
            for arr, ndim in arrays + [(state.vn, 1)]:
                assert isinstance(arr, np.ndarray) and arr.ndim == ndim
                assert arr.dtype == np.float64 and arr.flags.c_contiguous

        run_program(prog.initial_state(X), prog, observe=check)
        assert seen == list(range(1, len(prog.layers) + 1))

    @pytest.mark.parametrize("name", [
        "kernel_exp", "kernel_elu", "kernel_mlp", "deep_oracle",
        "deep_softmax", "deep_gatv2", "deepsets"])
    def test_observer_sees_each_step_as_run_layer(self, name, monkeypatch):
        # one call per step, a layer or a chunk of selection rounds (1, 2
        # or 3 rounds a chunk in a deep program): the steps cover every
        # layer once, in order, each bitwise what run_stepwise has at its
        # layers, in C-contiguous float64 arrays, with weights exactly
        # where the pool is a selection pool
        prog, X = self._compiled_case(name)
        s0 = prog.initial_state(X)
        want = run_stepwise(s0, prog)
        layers = list(range(1, len(prog.layers) + 1))
        for rounds in (1, 2, 3) if name.startswith("deep_") else (None,):
            if rounds is not None:
                monkeypatch.setattr(mpnnvn, "_CHUNK_FLOATS", rounds * X.size)
            steps = []
            run_program(s0, prog, observe=lambda *step: steps.append(step))
            assert all(isinstance(ks, range) for ks, *_ in steps)
            assert [k for ks, *_ in steps for k in ks] == layers
            assert max(len(ks) for ks, *_ in steps) == (rounds or 1)
            for step in steps:
                assert_step_is_stepwise(step, want)
                ks, state, vn_rows, weights = step
                assert vn_rows.shape == (len(ks), state.vn.size)
                pool = prog.layers[ks[0] - 1].vn_pool
                if isinstance(pool, (OracleSelectPool, SoftmaxSelectPool)):
                    assert weights.shape == (len(ks), X.shape[0])
                else:
                    assert weights is None
                for arr in [*state.gn.values(), state.vn, vn_rows] + (
                        [] if weights is None else [weights]):
                    assert arr.dtype == np.float64 and arr.flags.c_contiguous


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
        out, _ = run_layer(NodeState({"x": np.zeros((2, 3))}, np.zeros(1)),
                           plain_layer(vn_pool=pool), 1)
        assert out.vn.shape == (24,)

    def test_resolve_query_rejects_nonpositive_denominator(self):
        fm = attention.elu_feature_map()
        upd = ResolveQueryUpdate(np.eye(2), fm, value_dim=2)
        vn = np.zeros(6)  # key_sum = 0 -> denominator 0
        with pytest.raises(ValueError, match="denominator"):
            upd({"x": np.zeros((2, 2))}, vn)

    def test_resolve_query_rejects_nan_denominator(self):
        fm = attention.elu_feature_map()
        upd = ResolveQueryUpdate(np.eye(2), fm, value_dim=2)
        vn = np.ones(6)
        gn = np.array([[0.1, 0.2], [np.nan, 0.3]])
        with pytest.raises(ValueError, match="denominator"):
            upd({"x": gn}, vn)

    def test_mlp_resolve_rejects_nan_denominator(self):
        # unfitted pieces can give either sign, so only NaN rows are fed
        fm = attention.exp_feature_map(4, 2, seed=1)
        upd = MlpResolveUpdate(np.eye(2), fm, unfitted_pieces(), value_dim=2)
        vn = np.ones(12)
        gn = np.full((2, 2), np.nan)
        with pytest.raises(ValueError, match="denominator"):
            upd({"x": gn}, vn)


class TestScoreAccumulate:
    def test_one_accumulation_step_by_hand(self):
        d = 1
        w_q = np.array([[2.0]])
        w_k = np.array([[1.0]])
        w_v = np.array([[3.0]])
        upd = ScoreAccumulate(w_q, w_k, w_v, width=d)
        gn = as_blocks(np.array([[1.0, 0.0, 0.0], [2.0, 1.0, 1.0]]), d)
        vn = np.array([0.5, 9.0, 9.0])  # only the first block is read
        out = gn_matrix(upd(gn, vn))
        e0 = np.exp(1.0 * 2.0 * 0.5 * 1.0)
        e1 = np.exp(2.0 * 2.0 * 0.5 * 1.0)
        assert np.allclose(out[:, 0], [1.0, 2.0], atol=0)
        assert np.allclose(out[0], [1.0, e0 * 1.5, e0], atol=1e-12)
        assert np.allclose(out[1], [2.0, 1.0 + e1 * 1.5, 1.0 + e1], atol=1e-12)

    @staticmethod
    def _per_row(upd, blocks, vn):
        # one row at a time with einsum, the reference trace's rounding; q is
        # recomputed from x, so a staged q must equal it bitwise
        gn = gn_matrix(blocks)
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
        # pad == 0: contiguous blocks, as the VM hands them on; pad > 0: the
        # blocks are strided views into one wider matrix
        rng = numkit.make_rng(1000 * n + 10 * d + pad)
        upd = ScoreAccumulate(rng.normal(size=(d, d)), rng.normal(size=(d, d)),
                              rng.normal(size=(d, d)), width=d)

        def blocks(width):
            gn = rng.normal(size=(n, width + pad)) * 0.6
            gn[:, 2 * d] = np.abs(gn[:, 2 * d])
            views = as_blocks(gn, d)
            return views if pad else {k: v.copy() for k, v in views.items()}

        gn = blocks(2 * d + 1)
        before = {k: v.copy() for k, v in gn.items()}
        vn = rng.normal(size=2 * d + 1) * 0.6
        out = upd(gn, vn)
        assert np.array_equal(gn_matrix(out), self._per_row(upd, gn, vn))
        assert out["x"] is gn["x"]  # shared, not copied
        assert all(np.array_equal(gn[k], before[k]) for k in gn)  # unwritten
        # staged path: StageQuery writes q once, the accumulation reads it
        staged = blocks(3 * d + 1)
        staged = StageQuery(upd.w_q, width=d)(staged, vn)
        q_rows = [np.einsum("a,ac->c", staged["x"][i], upd.w_q)
                  for i in range(n)]
        assert np.array_equal(staged["q"], q_rows)
        hoisted = ScoreAccumulate(None, upd.w_k, upd.w_v, width=d)
        out = hoisted(staged, vn)
        assert np.array_equal(gn_matrix(out), self._per_row(upd, staged, vn))
        assert out["x"] is staged["x"] and out["q"] is staged["q"]

    def test_ratio_update(self):
        upd = RatioUpdate(width=2)
        gn = as_blocks(np.array([[9.0, 9.0, 6.0, 8.0, 2.0]]), 2)
        out = upd(gn, None)
        assert np.array_equal(gn_matrix(out), [[3.0, 4.0, 0.0, 0.0, 0.0]])

    def test_ratio_update_rejects_zero_mass(self):
        upd = RatioUpdate(width=1)
        with pytest.raises(ValueError, match="mass"):
            upd(as_blocks(np.array([[1.0, 1.0, 0.0]]), 1), None)

    def test_ratio_update_rejects_nan_mass(self):
        upd = RatioUpdate(width=1)
        with pytest.raises(ValueError, match="mass"):
            upd(as_blocks(np.array([[1.0, 1.0, 2.0], [1.0, 1.0, np.nan]]),
                          1), None)


# ---------------------------------------------------------------------------
# runs of selection rounds go in chunks, bitwise as layer by layer
# ---------------------------------------------------------------------------


def deep_case(selection, n, d=3, seed=0):
    """(program, X): a compiled deep program with ``selection`` and its n
    unit rows of width d."""
    rng = numkit.make_rng(100 * n + seed)
    X = rng.normal(size=(n, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    w = attention.random_weights(d, rng)
    if selection == "oracle":
        return compile_deep_vn(w, DeepSimConfig(n=n)), X
    if selection == "gatv2" and n == 1:  # l1_certificate needs two points
        cert = SeparabilityCertificate(X, [1.0], amplification=30.0,
                                       score="l1")
        return compile_deep_vn(w, DeepSimConfig(
            n=1, selection="gatv2", certificate=cert)), X
    return certified_program(selection, X, w), X


def assert_same_trace(got, want):
    """Two (states, weights) traces hold equal arrays, bitwise (NaN equal to
    NaN), under the same block names, and None where the other has None."""
    (states, weights), (want_states, want_weights) = got, want
    assert len(states) == len(want_states)
    for t, (s, w) in enumerate(zip(states, want_states)):
        assert list(s.gn) == list(w.gn), t
        for name in s.gn:
            assert np.array_equal(s.gn[name], w.gn[name], equal_nan=True), \
                (t, name)
        assert np.array_equal(s.vn, w.vn, equal_nan=True), t
    assert len(weights) == len(want_weights)
    for k, (a, w) in enumerate(zip(weights, want_weights), start=1):
        assert (a is None) == (w is None), k
        if a is not None:
            assert np.array_equal(a, w, equal_nan=True), k


def assert_step_is_stepwise(step, want):
    """An observed step (ks, state, vn_rows, weights) holds, bitwise, what
    the stepwise trace ``want`` (``traces.run_stepwise``) has at layers ks:
    the state after ks[-1], and each layer's virtual-node state and
    selection weights, one row per layer (None for a pool that is not a
    selection pool)."""
    ks, state, vn_rows, weights = step
    states, want_weights = want
    assert_same_trace(([state], []), ([states[ks[-1]]], []))
    assert np.array_equal(vn_rows, [states[k].vn for k in ks],
                          equal_nan=True), ks
    assert (weights is None) == (want_weights[ks[0] - 1] is None), ks
    if weights is not None:
        assert np.array_equal(weights, [want_weights[k - 1] for k in ks],
                              equal_nan=True), ks


class TestSelectionRounds:
    """``run_program`` computes a run of selection rounds a chunk at a
    time; ``traces.run_stepwise`` applies ``run_layer`` one layer at a
    time, and every observed step and output must agree bitwise."""

    def _check_against_stepwise(self, prog, X):
        s0 = prog.initial_state(X)
        kept = []

        def keep(*step):
            # a snapshot now, to find writes into arrays handed out earlier
            kept.append((step, copy.deepcopy(step)))

        with np.errstate(over="ignore", invalid="ignore"):
            run_program(s0, prog, observe=keep)
            want = run_stepwise(s0, prog)
            out = prog.execute(star(X.shape[0]), X)
        assert [k for (ks, *_), _ in kept for k in ks] == \
            list(range(1, len(prog.layers) + 1))
        for step, snap in kept:
            assert_step_is_stepwise(step, want)
            assert_step_is_stepwise(snap, want)
        assert np.array_equal(out, prog.extract(want[0][-1]), equal_nan=True)
        return want

    @pytest.mark.parametrize("selection", ["oracle", "softmax", "gatv2"])
    @pytest.mark.parametrize("n", [1, 2, 11])
    @pytest.mark.parametrize("scale", [1.0, 30.0])
    def test_chunked_rounds_equal_a_stepwise_run(self, selection, n, scale,
                                                  monkeypatch):
        # n = 11, width 3: 3 rounds a chunk, so rounds 2..11 are three full
        # chunks and one of a single round.  Rows times 30 overflow exp
        # (inf and NaN sums), which must come out the same way too
        prog, X = deep_case(selection, n)
        monkeypatch.setattr(mpnnvn, "_CHUNK_FLOATS", 3 * X.size)
        self._check_against_stepwise(prog, scale * X)

    @pytest.mark.parametrize("budget", [1, 20, 1 << 15])
    def test_any_chunk_size_gives_the_same_trace(self, budget, monkeypatch):
        # one round a chunk, uneven chunks of 2, and the whole run at once
        prog, X = deep_case("softmax", 9, d=4, seed=1)
        monkeypatch.setattr(mpnnvn, "_CHUNK_FLOATS", budget)
        self._check_against_stepwise(prog, X)

    def test_accumulation_that_recomputes_its_query(self, monkeypatch):
        # a ScoreAccumulate with w_q reads x, not a staged q, in every round
        prog, X = deep_case("oracle", 11, seed=2)
        w_q = prog.layers[0].gn_update.w_q
        old = prog.layers[1].gn_update
        recompute = ScoreAccumulate(w_q, old.w_k, old.w_v, width=old.width)
        prog = dataclasses.replace(prog, layers=[
            MpnnVnLayer(l.vn_pool, l.vn_update, recompute)
            if l.gn_update is old else l for l in prog.layers])
        assert [run.repeat for run in prog.runs] == [1, 10, 1, 1]
        monkeypatch.setattr(mpnnvn, "_CHUNK_FLOATS", 3 * X.size)
        self._check_against_stepwise(prog, X)

    # the fixtures that run, with their input width; "rich" holds every
    # descriptor kind but no runnable program
    FIXTURE_WIDTHS = {
        "deep_oracle.v1": 3, "deep_oracle.v2": 3, "deep_oracle.v3": 3,
        "deep_gatv2.v1": 3, "deep_gatv2.v2": 3, "deep_gatv2.v3": 3,
        "deep_softmax.v3": 3, "kernel_exact.v1": 3, "kernel_exact.v2": 3,
        "kernel_mlp_trained.v2": 2,
    }

    @pytest.mark.parametrize("name", sorted(FIXTURE_WIDTHS))
    @pytest.mark.parametrize("scale", [1.0, 30.0])
    def test_fixture_runs_as_stepwise(self, name, scale, monkeypatch):
        # v1 and v2 deep fixtures accumulate with w_q; only deep_oracle.v3
        # has a run of rounds (four), here in chunks of 3 and 1
        prog = load_program(FIXTURES / f"{name}.json")
        X = scale * numkit.make_rng(4).uniform(
            -0.5, 0.5, size=(5, self.FIXTURE_WIDTHS[name]))
        monkeypatch.setattr(mpnnvn, "_CHUNK_FLOATS", 3 * X.size)
        want = self._check_against_stepwise(prog, X)
        assert len(want[0]) == len(prog.layers) + 1

    def test_v2_layers_naming_one_descriptor_form_one_run(self):
        # a v2 document has one layer object per entry, but the entries of
        # rounds 2..n name the same table entries, so they are one run
        prog, X = deep_case("oracle", 6)
        old = program_from_json(v2_document(prog))
        assert len({id(layer) for layer in old.layers}) == len(old.layers)
        assert [(run.start, run.repeat) for run in old.runs] == \
            [(0, 1), (1, 5), (6, 1), (7, 1)]
        assert program_to_json(old) == program_to_json(prog)
        self._check_against_stepwise(old, X)

    @pytest.mark.parametrize("selection", ["oracle", "softmax", "gatv2"])
    @pytest.mark.parametrize("n", [3, 20])
    def test_execute_takes_rounds_2_to_n_in_chunks(self, selection, n,
                                                    monkeypatch):
        # only the first round and the two closing layers go through
        # run_layer; a change that sent deep programs back to one call per
        # layer fails here, not only in the benchmark
        prog, X = deep_case(selection, n)
        calls = []

        def counting(s, layer, k):
            calls.append(k)
            return run_layer(s, layer, k)

        monkeypatch.setattr(mpnnvn, "run_layer", counting)
        prog.execute(star(n), X)
        assert calls == [1, n + 1, n + 2]

    @pytest.mark.parametrize("n", [256, 1024])
    def test_oracle_execute_peak_memory(self, n):
        # the (rounds, n, d) score terms of a chunk shrink in rounds as
        # n * d grows: the parent of chunked rounds peaked near 170 KB and
        # 668 KB here; the whole run's terms at once would take 4 MiB and
        # 64 MiB, and a fixed 16-round chunk 640 KB and 2.5 MB
        rng = numkit.make_rng(n)
        d = 8
        w = attention.random_weights(d, rng)
        X = 0.3 * rng.normal(size=(n, d))
        prog = compile_deep_vn(w, DeepSimConfig(n=n))
        g = star(n)
        prog.execute(g, X)  # first call: any one-time set-up
        tracemalloc.start()
        try:
            prog.execute(g, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_unobserved_oracle_rounds_build_no_selection_weights(
            self, monkeypatch):
        # under execute nothing reads the one-hot weights, so the chunk of
        # rounds 2..n asks the pool for none (layer 1 goes through
        # run_layer, which returns them); observed, the chunk's step hands
        # on the one (rounds, n) array the pool built
        prog, X = deep_case("oracle", 5)
        built = []
        select = OracleSelectPool.select

        def spy(self, vn, gn, ks, weigh=True):
            pooled, weights = select(self, vn, gn, ks, weigh)
            built.append((ks, weights))
            return pooled, weights

        monkeypatch.setattr(OracleSelectPool, "select", spy)
        prog.execute(star(5), X)
        assert [(ks, w is None) for ks, w in built] == \
            [(range(1, 2), False), (range(2, 6), True)]
        built.clear()
        seen = []
        run_program(prog.initial_state(X), prog,
                    observe=lambda ks, s, v, w: seen.append((ks, w)))
        assert [ks for ks, _ in built] == [range(1, 2), range(2, 6)]
        assert np.array_equal(built[1][1], np.eye(5)[1:])
        assert seen[1][0] == range(2, 6) and seen[1][1] is built[1][1]

    @staticmethod
    def _any_selection_case(selection, n, d):
        """(program, X): a deep program whose softmax or gatv2 pool scores
        against random selectors (no LP: the fold is checked, not the
        selection), on rows whose norms span three decades, so the terms
        of one node's sums do too."""
        rng = numkit.make_rng(1000 * n + d)
        X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-2.0, 1.0, (n, 1))
        w = attention.random_weights(d, rng)
        cert = None if selection == "oracle" else SeparabilityCertificate(
            rng.normal(size=(n, d)), np.ones(n), amplification=3.0,
            score="bilinear" if selection == "softmax" else "l1")
        return compile_deep_vn(w, DeepSimConfig(
            n=n, selection=selection, certificate=cert)), X

    @pytest.mark.parametrize("selection", ["oracle", "softmax", "gatv2"])
    @pytest.mark.parametrize("n", [3, 5, 33])
    @pytest.mark.parametrize("d", [1, 3, 8])
    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_folded_chunks_equal_a_stepwise_run(self, selection, n, d,
                                                 rounds, monkeypatch):
        # rounds 2..n in chunks of 1, 2 or 3 rounds (the last one partial
        # for 3 rounds at every n here), folded into acc and mass by one
        # reduce a chunk, with no observer and with one
        prog, X = self._any_selection_case(selection, n, d)
        monkeypatch.setattr(mpnnvn, "_CHUNK_FLOATS", rounds * X.size)
        s0 = prog.initial_state(X)
        states, _ = run_stepwise(s0, prog)
        want = states[-1]
        seen = []
        for final in (run_program(s0, prog),
                      run_program(s0, prog,
                                  observe=lambda ks, *_: seen.append(ks))):
            assert_same_trace(([final], []), ([want], []))
        assert np.array_equal(prog.execute(star(n), X), prog.extract(want))
        assert seen == [range(1, 2)] + [
            range(first, min(first + rounds, n + 1))
            for first in range(2, n + 1, rounds)] + [range(n + 1, n + 2),
                                                     range(n + 2, n + 3)]

    @staticmethod
    def _fold_case(rng, rows, d, rounds, legacy=False):
        """(accumulate, state, ys): a ``ScoreAccumulate`` reading block q
        (or, ``legacy``, recomputing it from x with ``w_q``), a state with
        random old sums, and ``rounds`` features whose scores q . (y @ w_k)
        reach +-8 decades, so the terms span up to 16 decades."""
        q = rng.normal(size=(rows, d))
        w_q = None
        gn = {"x": rng.normal(size=(rows, d)),
              "acc": rng.normal(size=(rows, d)),
              "mass": rng.uniform(size=(rows, 1)), "q": q}
        if legacy:
            w_q = rng.normal(size=(d, d))
            del gn["q"]
            q = np.einsum("ia,ac->ic", gn["x"], w_q)
        w_k, w_v = rng.normal(size=(d, d)), rng.normal(size=(d, d))
        ys = rng.normal(size=(rounds, 2 * d + 1))
        scores = np.abs(q @ (ys[:, :d] @ w_k).T).max()
        ys *= 8.0 * math.log(10.0) / max(scores, 1e-300)
        return ScoreAccumulate(w_q, w_k, w_v, width=d), gn, ys

    def test_fold_adds_in_round_order(self):
        # 32 rounds on 5 nodes whose terms span 16 decades: summed pairwise
        # (as numpy sums a contiguous axis), acc and mass differ from the
        # round-by-round sums; the fold must give the latter
        rng = numkit.make_rng(5)
        rows, d = 5, 3
        accumulate, gn, ys = self._fold_case(rng, rows, d, 32)
        # each round's term alone: folded into zero sums, which adds
        # nothing to it
        zero = {**gn, "acc": np.zeros((rows, d)), "mass": np.zeros((rows, 1))}
        alone = [accumulate.fold(zero, y[None]) for y in ys]
        terms = np.stack([t["acc"] for t in alone])
        e = np.stack([t["mass"][:, 0] for t in alone])
        assert np.ptp(np.log10(e)) > 14.0
        acc, mass = gn["acc"], gn["mass"]
        for j in range(len(ys)):
            acc, mass = terms[j] + acc, mass + e[j][:, None]

        def pairwise(first, stack):  # each node's sum along a contiguous axis
            return np.ascontiguousarray(
                np.moveaxis(np.concatenate([first[None], stack]), 0, -1)
            ).sum(axis=-1)

        assert not np.array_equal(pairwise(gn["acc"], terms), acc)
        assert not np.array_equal(pairwise(gn["mass"][:, 0], e), mass[:, 0])
        final = accumulate.fold(gn, ys)
        assert np.array_equal(final["acc"], acc)
        assert np.array_equal(final["mass"], mass)
        assert final["x"] is gn["x"] and final["q"] is gn["q"]

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6),
           d=st.integers(1, 4), rounds=st.integers(1, 12),
           legacy=st.booleans(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_fold_is_one_round_at_a_time(self, seed, rows, d, rounds,
                                         legacy, data):
        # the fold of a stack is bitwise the fold of its two parts, one
        # after the other, at any split, and __call__ round by round; one
        # node (which numpy would sum pairwise) and the legacy w_q path too
        accumulate, gn, ys = self._fold_case(
            numkit.make_rng(seed), rows, d, rounds, legacy)
        whole = accumulate.fold(gn, ys)
        stepped = gn
        for y in ys:
            stepped = accumulate(stepped, y)
        got = [stepped]
        if rounds > 1:
            split = data.draw(st.integers(1, rounds - 1), label="split")
            got.append(accumulate.fold(accumulate.fold(gn, ys[:split]),
                                       ys[split:]))
        for state in got:
            assert state.keys() == gn.keys()
            for name, block in state.items():
                assert np.array_equal(block, whole[name]), name
                assert block.flags.c_contiguous and block.dtype == np.float64
        assert whole["acc"].shape == (rows, d)
        assert whole["mass"].shape == (rows, 1)


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
        # the five selection layers come first, so n = 5: the two table
        # pools read rows of a (5, 2) table, and the oracle pool could lose
        # its index and still select inside the rows
        table = np.arange(10.0).reshape(5, 2) / 8.0
        layers = [
            MpnnVnLayer(SoftmaxSelectPool(width=2, scale=3.5),
                        SelectorAdvance(width=2,
                                        next_selector=np.array([1.0, -1.0])),
                        ScoreAccumulate(np.eye(2), np.eye(2),
                                        rng.normal(size=(2, 2)), width=2)),
            MpnnVnLayer(SoftmaxSelectPool(width=2, scale=2.0, score=g2),
                        ConstVn(np.ones(5)), IdentityGn()),
            MpnnVnLayer(SoftmaxSelectPool(width=2, scale=1.5,
                                          selectors=table),
                        KeepVn(), IdentityGn()),
            MpnnVnLayer(SoftmaxSelectPool(width=2, scale=2.5, score=g2,
                                          selectors=-table),
                        CopyPooled(), IdentityGn()),
            MpnnVnLayer(OracleSelectPool(index=1), KeepVn(),
                        RatioUpdate(width=2)),
            MpnnVnLayer(FeatureStatsPool(rng.normal(size=(2, 2)),
                                         rng.normal(size=(2, 2)), fm),
                        CopyPooled(), IdentityGn()),
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
                        StageQuery(rng.normal(size=(2, 2)), width=2)),
            MpnnVnLayer(MeanPool(), KeepVn(),
                        ScoreAccumulate(None, rng.normal(size=(2, 2)),
                                        rng.normal(size=(2, 2)), width=2)),
        ]
        return LayerProgram(
            layers=layers, vn_init=np.ones(5), provenance="round-trip-test",
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
        # the softmax pool with and without an additive score, each with and
        # without a selector table
        assert {(p.score is None, p.selectors is None)
                for p in (layer.vn_pool for layer in prog.layers)
                if isinstance(p, SoftmaxSelectPool)} == \
            {(True, True), (True, False), (False, True), (False, False)}

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
        if name == "deep_softmax":
            # unit vectors, each clearing every other by 1
            X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                          [-1.0, 0.0, 0.0], [0.0, -0.6, -0.8]])
            return certified_program("softmax", X, w, amplification=20.0)
        fm = attention.exp_feature_map(4, 3, seed=2)
        return compile_kernel_vn(w, KernelSimConfig(feature_map=fm))

    # sha256 of the saved documents' content, re-encoded with indent=2 and
    # sorted keys (the layout they were first pinned in); a change here is a
    # change of the on-disk format.  Re-recorded for layer-program/v3 (runs
    # with a repeat count, no gn_init/gn_out, the deep oracle's one
    # round-indexed pool); the v2 pins live on as V2_FIXTURE_SHA256.  "rich"
    # and "deep_gatv2" re-recorded again when the softmax and additive pools
    # became one kind with a round-indexed selector table (the per-round
    # deep_gatv2 document lives on as V3_PER_ROUND_FIXTURE_SHA256).
    PINNED_SHA256 = {
        "rich":
            "a5d5d46f97bce42ca8ae57790ce77e0ca4f3109b5fa46f5187617e57511df277",
        "deep_oracle":
            "d25b1a2328c05214af341d50dc7eff7e3747075440119edd68e98cd425a2f75c",
        "deep_gatv2":
            "11048d3d7655658c7551023b4836f78a95ec920129dc811e2ed082a9bd0016f7",
        "kernel_exact":
            "9213c81b2a449c53975732172ca3641013a41537664429d4057d9beb3d8e3719",
    }

    # sha256 of the same documents as written, on one line: a change here
    # with PINNED_SHA256 unchanged is a change of layout only
    COMPACT_SHA256 = {
        "rich":
            "649bccc6ed336c06f44bf5bfc3eb5d65d243ce6ae7a2c2140d195eb1f039ddf4",
        "deep_oracle":
            "fc0f7dc053de4519fd82848e0460ae853e8a74e7c13fcce1f9579b9c74d48174",
        "deep_gatv2":
            "0b72756367e17ea9a8d7524164d99413accdc022ef26956eff0fa6d616bcb212",
        "kernel_exact":
            "0a03b360f06da4bd397a70469e8e9464b226e3755a34c048f64d718082fb2d7f",
    }

    @pytest.mark.parametrize("name", sorted(PINNED_SHA256))
    def test_saved_bytes_are_pinned(self, name, tmp_path):
        path = tmp_path / "program.json"
        save_program(self._pinned_program(name), path)
        saved = path.read_bytes()
        assert sha256(saved) == self.COMPACT_SHA256[name]
        assert sha256(reindented(saved)) == self.PINNED_SHA256[name]

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

    # sha256 of the layer-program/v3 documents the v1 fixtures re-save to,
    # as content (re-indented, like PINNED_SHA256) and as written.
    # The rich and deep fixtures were written before StageQuery: their
    # ScoreAccumulates carry w_q and recompute the query from x, and their
    # deep states are [x | acc | mass], so they keep that old layout.  "rich"
    # and "deep_gatv2" re-recorded when their pools re-saved as the one
    # softmax_select_pool kind, with null score or selectors keys.
    V1_RESAVED_SHA256 = {
        "rich":
            "ae92dc2ee1d91f2c5a7af3ed23e12aca4a59286dca1371ac1b110132fff72641",
        "deep_oracle":
            "ade3e4c922518dff6d0b37e6525c05a3164847d302724b1e2bb0d36f8ded94ae",
        "deep_gatv2":
            "e651352e75a8b3601568a239f80da8126a85a74d24ecbaacbb49d467dd1d924d",
        "kernel_exact": PINNED_SHA256["kernel_exact"],
    }
    V1_RESAVED_COMPACT_SHA256 = {
        "rich":
            "be535fb475f75c8d898bcd11d313780854eecc4584ae5f87b56608eb2da8513c",
        "deep_oracle":
            "f9051e1aa7b4860e2d4904276814fa6a6ff4341e053d91c6ba6ff3a20ad8c1b5",
        "deep_gatv2":
            "b7e72b5b54c3c164d732c8efc4990faf9d9dbbdf066c7cf895112ef20b52aa0f",
        "kernel_exact": COMPACT_SHA256["kernel_exact"],
    }

    @pytest.mark.parametrize("name", sorted(V1_FIXTURE_SHA256))
    def test_v1_fixture_resaves_to_the_v2_pin(self, name, tmp_path):
        path = tmp_path / "program.json"
        save_program(load_program(self._v1_fixture(name)), path)
        saved, pin = path.read_bytes(), name.removesuffix("_gn_msg")
        assert sha256(saved) == self.V1_RESAVED_COMPACT_SHA256[pin]
        assert sha256(reindented(saved)) == self.V1_RESAVED_SHA256[pin]

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

    @pytest.mark.parametrize("name", ["deep_oracle", "deep_gatv2",
                                      "deep_oracle_gn_msg"])
    def test_deep_fixture_carries_its_node_count(self, name):
        prog = load_program(self._v1_fixture(name))
        assert prog.provenance == "deep-attention-compiler"
        assert {k: prog.metadata[k] for k in ("compiler", "n", "d")} == \
            {"compiler": "deep", "n": 5, "d": 3}
        X = 0.5 * numkit.make_rng(4).normal(size=(6, 3))
        with pytest.raises(ValueError, match="compiled for n=5 graph nodes"):
            prog.execute(star(6), X)

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

    # layer-program/v2 documents of the pinned programs, as the v2 writer
    # saved them (tests/fixtures/<name>.v2.json); their sha256 are the pins
    # of the saved bytes while v2 was the written format
    V2_FIXTURE_SHA256 = {
        "rich":
            "c8b8c15b69fbe23f5351853165843d781f646a2bd6fa90c78c14946eecc3c693",
        "deep_oracle":
            "4021fc48a5087af2af4e75b54d994bedf05350c8b8990e32e02a5f5156c9cae5",
        "deep_gatv2":
            "b79a05100db8029a35e0c2efa09600a55ec9e4072763503a0878e085c9f75212",
        "kernel_exact":
            "21e7c1021cbccd981c18897ccf843e2fd76fa3793f3fe0fca12e1dbd31dec336",
    }

    # sha256 of the layer-program/v3 documents the v2 fixtures re-save to,
    # as written.  The v2 deep oracle selects through one fixed-index pool
    # per round, which it keeps, so it does not fold into one round; the v2
    # deep gatv2 likewise keeps its staged selector per round.  "rich" and
    # "deep_gatv2" were the COMPACT_SHA256 pins until their pools re-saved
    # as the one softmax_select_pool kind.
    V2_RESAVED_COMPACT_SHA256 = {
        "rich":
            "6f04e6431430e69e4d1509f33816c535ee777d903c1de887617a07282cbb426e",
        "deep_oracle":
            "3b922e2fb6c4ffc274916a46b0f0e8a2c53705b47d4e6a6e4f17475470375ff4",
        "deep_gatv2":
            "3cd5d41de7c54ec86d2ea64af45c54bb366d0947428e3f406588dbee2461d045",
        "kernel_exact": COMPACT_SHA256["kernel_exact"],
    }

    @staticmethod
    def _v2_fixture_document(name):
        return numkit.load_json(FIXTURES / f"{name}.v2.json")

    @pytest.mark.parametrize("name", sorted(V2_FIXTURE_SHA256))
    def test_v2_fixture_holds_the_v2_bytes(self, name):
        path = FIXTURES / f"{name}.v2.json"
        raw = path.read_bytes()
        assert sha256(raw) == self.V2_FIXTURE_SHA256[name]
        # v2_document lays a program out as the v2 writer did
        assert json.loads(raw) == v2_document(load_program(path))

    @pytest.mark.parametrize("name", sorted(V2_FIXTURE_SHA256))
    def test_v2_fixture_resaves_to_the_v3_pin(self, name, tmp_path):
        path = tmp_path / "program.json"
        save_program(load_program(FIXTURES / f"{name}.v2.json"), path)
        assert sha256(path.read_bytes()) == \
            self.V2_RESAVED_COMPACT_SHA256[name]
        assert numkit.load_json(path)["format"] == "layer-program/v3"

    @pytest.mark.parametrize("name", ["deep_oracle", "deep_gatv2",
                                      "kernel_exact"])
    def test_v2_fixture_runs_identically(self, name):
        prog = self._pinned_program(name)
        old = load_program(FIXTURES / f"{name}.v2.json")
        assert np.array_equal(old.execute(star(5), self.FUZZ_X),
                              prog.execute(star(5), self.FUZZ_X))

    def test_v3_fixture_holds_the_pinned_bytes(self):
        # tests/fixtures/deep_oracle.v3.json is the pinned deep oracle
        # program as save_program writes it
        raw = (FIXTURES / "deep_oracle.v3.json").read_bytes()
        assert sha256(raw) == self.COMPACT_SHA256["deep_oracle"]
        prog = load_program(FIXTURES / "deep_oracle.v3.json")
        assert np.array_equal(
            prog.execute(star(5), self.FUZZ_X),
            self._pinned_program("deep_oracle").execute(star(5), self.FUZZ_X))

    # layer-program/v3 documents of the pinned certified programs, saved
    # while softmax and gatv2 rounds each staged their own next selector
    # (tests/fixtures/<name>.v3.json): n + 6 table entries in n + 2 runs.
    # The deep_gatv2 one is that time's COMPACT_SHA256 pin.
    V3_PER_ROUND_FIXTURE_SHA256 = {
        "deep_softmax":
            "62fd6222dda4176ba91d2eb3d8e82157490d41a8e4edd0c62f29c2ddae208d62",
        "deep_gatv2":
            "ac727ea8ce8baa6d6df8cbdd71b5c3d5663ae4ba58125747da1a189e49c15687",
    }

    @pytest.mark.parametrize("name", sorted(V3_PER_ROUND_FIXTURE_SHA256))
    def test_per_round_fixture_runs_as_the_table_compile(self, name):
        path = FIXTURES / f"{name}.v3.json"
        assert sha256(path.read_bytes()) == \
            self.V3_PER_ROUND_FIXTURE_SHA256[name]
        blob = numkit.load_json(path)
        assert len(blob["descriptors"]) == 11
        assert [run["repeat"] for run in blob["layers"]] == [1] * 7
        old = load_program(path)
        assert old.n == 5
        assert all(isinstance(l.vn_pool, SoftmaxSelectPool)
                   and l.vn_pool.selectors is None for l in old.layers[:5])
        fresh = self._pinned_program(name)
        assert fresh.layers[0].vn_pool.selectors.shape == (5, 3)
        got, got_weights = selection_run(old, self.FUZZ_X)
        want, want_weights = selection_run(fresh, self.FUZZ_X)
        assert np.array_equal(got, want)
        assert len(got_weights) == len(want_weights) == 5
        for a, b in zip(got_weights, want_weights):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("selection", ["oracle", "softmax", "gatv2"])
    def test_deep_document_grows_only_by_its_table(self, selection,
                                                   tmp_path):
        # every deep program is 7 table entries in 4 runs; from n to 2n rows
        # a certified document grows by the n extra table rows (their values
        # and commas) and by one digit in each of the counts rows, n and
        # repeat where those gain one
        w = self._pinned_weights(numkit.make_rng(5), 3)
        X = numkit.make_rng(6).normal(size=(128, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        sizes = {}
        for n in (2, 4, 16, 32, 64, 128):
            prog = compile_deep_vn(w, DeepSimConfig(n=n)) \
                if selection == "oracle" \
                else certified_program(selection, X[:n], w)
            path = tmp_path / f"deep{n}.json"
            save_program(prog, path)
            blob = numkit.load_json(path)
            assert len(blob["descriptors"]) == 7
            assert [run["repeat"] for run in blob["layers"]] == \
                [1, n - 1, 1, 1]
            sizes[n] = path.stat().st_size
        for n in (2, 16, 64):
            rows = json.dumps(X[n : 2 * n].ravel().tolist(),
                              separators=(",", ":"))
            extra = 0 if selection == "oracle" else len(rows) - 1
            digits = 3 * (len(str(2 * n)) - len(str(n)))
            assert sizes[2 * n] - sizes[n] <= extra + digits, n

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
        assert path.stat().st_size < 30_000
        assert path.read_bytes().count(b"\n") == 1
        kinds = [e["kind"] for e in numkit.load_json(path)["descriptors"]]
        assert kinds.count("score_accumulate") == 1
        again = load_program(path)
        accumulate = again.layers[1].gn_update
        assert isinstance(accumulate, ScoreAccumulate)
        assert all(l.gn_update is accumulate for l in again.layers[1 : n + 1])
        X = 0.3 * numkit.make_rng(6).normal(size=(n, d))
        assert np.array_equal(again.execute(star(n), X),
                              prog.execute(star(n), X))

    def test_oracle_document_does_not_grow_with_n(self, tmp_path):
        # one round-indexed pool and one zero step serve every round, and
        # rounds 2..n are one run: the documents differ only in the digits
        # of metadata.n and of that run's repeat
        w = attention.random_weights(8, numkit.make_rng(5))
        shapes = set()
        for n in (4, 16, 256, 1024):
            prog = compile_deep_vn(w, DeepSimConfig(n=n, selection="oracle"))
            path = tmp_path / f"deep{n}.json"
            save_program(prog, path)
            assert path.stat().st_size < 6_000
            blob = numkit.load_json(path)
            assert len(blob["descriptors"]) == 7
            assert [run["repeat"] for run in blob["layers"]] == [1, n - 1, 1, 1]
            text = path.read_text()
            digits = (f'"n":{n},', f'"repeat":{n - 1},')
            assert [text.count(d) for d in digits] == [1, 1]
            for d in digits:
                text = text.replace(d, "")
            shapes.add(text)
        assert len(shapes) == 1

    # a small pool of layers, two of them equal in value but separate
    # objects, and two oracle pools that differ only in a null index
    RUN_POOL = [
        plain_layer(),
        plain_layer(vn_update=KeepVn()),
        plain_layer(gn_update=LinearGn(np.eye(2))),
        plain_layer(gn_update=LinearGn(np.eye(2))),
        plain_layer(gn_update=LinearGn(2.0 * np.eye(2))),
        plain_layer(vn_pool=OracleSelectPool()),
        plain_layer(vn_pool=OracleSelectPool(index=0)),
    ]

    @given(st.lists(st.tuples(st.integers(0, len(RUN_POOL) - 1),
                              st.integers(1, 4)), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_runs_round_trip_and_are_maximal(self, draws):
        layers = [self.RUN_POOL[i] for i, repeat in draws
                  for _ in range(repeat)]
        blob = program_to_json(LayerProgram(layers=layers,
                                            vn_init=np.zeros(2)))
        text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
        again = program_from_json(json.loads(text))
        assert json.dumps(program_to_json(again), sort_keys=True,
                          separators=(",", ":")) == text
        slots = ("vn_pool", "vn_update", "gn_update")
        keys = [tuple(run[slot] for slot in slots) for run in blob["layers"]]
        assert all(a != b for a, b in zip(keys, keys[1:]))

        def values(layer_list):
            return [[getattr(l, slot).to_json() for slot in slots]
                    for l in layer_list]

        assert values(again.layers) == values(layers)

    REPEAT_UNSET = object()

    @pytest.mark.parametrize("repeat", [
        0, -1, True, False, 2.0, 1.5, "2", None, [2], {}, REPEAT_UNSET,
    ], ids=["zero", "negative", "true", "false", "float", "fraction",
            "string", "null", "list", "object", "missing"])
    def test_repeat_must_be_a_positive_integer(self, repeat):
        blob = program_to_json(self._pinned_program("deep_oracle"))
        if repeat is self.REPEAT_UNSET:
            del blob["layers"][1]["repeat"]
            repeat = None
        else:
            blob["layers"][1]["repeat"] = repeat
        with pytest.raises(ValueError, match=(
                r"^layers\[1\]\.repeat must be an integer >= 1, got "
                + re.escape(repr(repeat)) + "$")):
            program_from_json(blob)

    def test_huge_repeat_is_refused_before_any_layer_is_built(self):
        blob = program_to_json(self._pinned_program("deep_oracle"))
        blob["layers"][1]["repeat"] = 10**12
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=(
                    r"^layers\[1\]\.repeat 1000000000000 brings the program "
                    r"to 1000000000001 layers, more than the 1000000 a "
                    r"document may hold$")):
                program_from_json(blob)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 1_000_000

    def test_layer_ceiling_counts_every_run(self):
        # the ceiling is on the total, so it names the run that passes it
        assert mpnnvn.MAX_LAYERS == 1_000_000
        blob = program_to_json(self._pinned_program("deep_oracle"))
        blob["layers"][0]["repeat"] = mpnnvn.MAX_LAYERS - 1
        with pytest.raises(ValueError, match=(
                r"^layers\[1\]\.repeat 4 brings the program to 1000003 "
                r"layers, more than the 1000000 a document may hold$")):
            program_from_json(blob)

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
            {"vn_pool": 0, "vn_update": 1, "gn_update": 2, "repeat": 3}]

    def test_graph_to_graph_channel_is_refused(self):
        blob = program_to_json(mean_subtract_program(2))
        blob["layers"][1]["gn_gn_msg"] = {"kind": "identity_pair_msg"}
        with pytest.raises(ValueError, match=r"layers\[1\].*gn_gn_msg"):
            program_from_json(blob)

    @pytest.mark.parametrize("key,value", [
        ("gn_init", ["pad"]), ("gn_init", "foo"), ("gn_out", [0]),
    ])
    def test_malformed_init_or_out_names_the_field(self, key, value):
        blob = self._v2_fixture_document("deep_oracle")
        blob[key] = value
        with pytest.raises(ValueError, match=key):
            program_from_json(blob)

    @pytest.mark.parametrize("gn_out", [[-1, 3], [2, 1], [2, 2]])
    def test_gn_out_must_be_an_increasing_pair(self, gn_out):
        # a deep document's gn_out is block x's columns, [0, d]
        blob = self._v2_fixture_document("deep_oracle")
        blob["gn_out"] = gn_out
        with pytest.raises(ValueError, match=(
                rf"^gn_out \[{gn_out[0]}, {gn_out[1]}\] disagrees with the "
                r"layers, which imply \[0, 3\]$")):
            program_from_json(blob)

    def test_gn_out_past_the_state_is_refused_at_load(self):
        # it once loaded, and every run was refused
        blob = self._v2_fixture_document("deep_oracle")
        blob["gn_out"] = [0, 100]
        with pytest.raises(ValueError, match=(
                r"^gn_out \[0, 100\] disagrees with the layers, which imply "
                r"\[0, 3\]$")):
            program_from_json(blob)

    @pytest.mark.parametrize("key, value", [
        ("gn_out", [0, 3.0]), ("gn_out", [False, 3]), ("gn_out", (0, 3)),
        ("gn_out", None), ("gn_init", ["pad", 10.0]), ("gn_init", None),
    ])
    def test_recorded_layout_must_be_the_written_one(self, key, value):
        # a float, a boolean or a tuple is not taken for what it equals
        blob = self._v2_fixture_document("deep_oracle")
        blob[key] = value
        with pytest.raises(ValueError, match=(
                rf"^{key} .* disagrees with the layers, which imply ")):
            program_from_json(blob)

    @pytest.mark.parametrize("key", ["layers", "vn_init"])
    def test_missing_layers_or_vn_init_names_the_field(self, key):
        blob = program_to_json(self._pinned_program("deep_oracle"))
        del blob[key]
        with pytest.raises(ValueError, match=f"missing field '{key}'"):
            program_from_json(blob)

    @pytest.mark.parametrize("document, kind", [
        ("[]", "list"), ("null", "NoneType"), ('"x"', "str"), ("3", "int"),
    ])
    def test_document_that_is_not_an_object_is_refused(self, document, kind,
                                                       tmp_path):
        path = tmp_path / "program.json"
        path.write_text(document + "\n")
        with pytest.raises(ValueError, match=(
                f"program document payload must be an object, got {kind}")):
            load_program(path)

    @pytest.mark.parametrize("layers", [5, None, {"a": 1}, "ab"],
                             ids=["int", "null", "object", "string"])
    @pytest.mark.parametrize("fmt", ["layer-program/v1", "layer-program/v2",
                                     "layer-program/v3"])
    def test_layers_that_are_not_a_list_are_refused(self, fmt, layers):
        blob = program_to_json(self._pinned_program("deep_oracle"))
        blob["format"], blob["layers"] = fmt, layers
        with pytest.raises(ValueError, match="^layers must be a list, got "):
            program_from_json(blob)

    def test_round_trip_preserves_document(self, tmp_path):
        prog = self._rich_program()
        path = tmp_path / "program.json"
        save_program(prog, path)
        again = load_program(path)
        assert program_to_json(again) == program_to_json(prog)
        assert again.provenance == "round-trip-test"
        assert again.layout == prog.layout == {"x": 2, "acc": 2, "mass": 1,
                                               "q": 2}
        # four softmax pools (two with a table) and a fixed oracle pool
        assert again.n == prog.n == 5
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

    @pytest.mark.parametrize("key,value", [
        *((key, 0.0) for key in ("k_abs", "q_abs", "v_abs", "phi_k_max",
                                 "phi_q_max", "s_max", "m_abs", "num_abs",
                                 "inv_max")),
        ("k_abs", -1.0), ("s_max", float("nan")), ("inv_max", float("inf"))])
    def test_non_positive_scale_bound_is_refused_on_load(self, key, value):
        # a run divides operands by each of these bounds
        blob = numkit.load_json(FIXTURES / "kernel_mlp_trained.v2.json")
        j = next(j for j, e in enumerate(blob["descriptors"])
                 if "pieces" in e)
        blob["descriptors"][j]["pieces"]["bounds"][key] = value
        # a non-finite float is refused as it is read, before KernelPieces
        # checks the bound
        why = (rf"KernelPieces bounds\['{key}'\] must be finite and positive"
               if math.isfinite(value) else
               rf"KernelPieces: field 'bounds': value must be finite, "
               rf"got {value}")
        with pytest.raises(ValueError, match=(
                rf"descriptors\[{j}\]: {blob['descriptors'][j]['kind']}: "
                rf"field 'pieces': {why}")):
            program_from_json(blob)

    @staticmethod
    def _load_with_token(blob, path, token):
        """Save ``blob``, whose one edited value is the marker 424242.5,
        with ``token`` written in its place, and load it."""
        path.write_text(json.dumps(blob).replace("424242.5", token))
        return load_program(path)

    def test_non_finite_payloads_are_refused_on_load(self, tmp_path):
        # json reads NaN, Infinity and 1e999 (as inf); each is refused where
        # it is read, so the error names the weight, not a failed run
        path = tmp_path / "edited.json"
        blob = numkit.load_json(FIXTURES / "kernel_mlp_trained.v2.json")
        sq = blob["descriptors"][0]["pieces"]["sq"]
        sq["params"]["layers"][0]["bias"]["values"][3] = 424242.5
        with pytest.raises(ValueError, match=(
                r"^descriptors\[0\]: mlp_stats_pool: field 'pieces': "
                r"KernelPieces: field 'sq': FittedPiece: field 'params': "
                r"matrix payload contains non-finite entries, the first nan "
                r"at \(0, 3\)$")):
            self._load_with_token(blob, path, "NaN")
        blob = numkit.load_json(FIXTURES / "deep_oracle.v3.json")
        blob["vn_init"]["values"][3] = 424242.5
        with pytest.raises(ValueError, match=(
                r"^vn_init: matrix payload contains non-finite entries, the "
                r"first nan at \(0, 3\)$")):
            self._load_with_token(blob, path, "NaN")
        w = attention.random_weights(3, numkit.make_rng(0))
        X = numkit.make_rng(1).normal(size=(5, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        blob = program_to_json(certified_program("gatv2", X, w))
        blob["descriptors"][0]["selectors"]["values"][7] = 424242.5
        with pytest.raises(ValueError, match=(
                r"^descriptors\[0\]: softmax_select_pool: field 'selectors': "
                r"matrix payload contains non-finite entries, the first inf "
                r"at \(2, 1\)$")):
            self._load_with_token(blob, path, "1e999")
        # the marker itself is a finite value, and loads
        assert self._load_with_token(blob, path, "424242.5").n == 5

    def test_every_fixture_loads(self):
        paths = sorted(FIXTURES.glob("*.json"))
        assert len(paths) == 14
        for path in paths:
            assert load_program(path).layers

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

    def test_documents_and_programs_share_no_metadata(self):
        prog = self._pinned_program("deep_oracle")
        blob = program_to_json(prog)
        blob["metadata"]["note"] = 1
        assert "note" not in prog.metadata
        loaded = program_from_json(blob)
        del blob["metadata"]["n"]
        assert loaded.metadata["n"] == prog.metadata["n"] == 5
        # nested values are copied too
        mlp_prog = load_program(FIXTURES / "kernel_mlp_trained.v2.json")
        bounds = dict(mlp_prog.metadata["bounds"])
        name = next(iter(bounds))
        program_to_json(mlp_prog)["metadata"]["bounds"][name] = -1.0
        blob = program_to_json(mlp_prog)
        loaded = program_from_json(blob)
        blob["metadata"]["bounds"][name] = -2.0
        assert mlp_prog.metadata["bounds"] == loaded.metadata["bounds"] \
            == bounds

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
        # the metadata echoes n and d; the layers fix both, and a run
        # checks its input against them
        prog = self._pinned_program("deep_oracle")
        blob = program_to_json(prog)
        blob["metadata"][name] = value
        loaded = program_from_json(blob)
        assert (loaded.n, loaded.layout) == (prog.n, prog.layout)
        assert np.array_equal(loaded.execute(star(5), self.FUZZ_X),
                              prog.execute(star(5), self.FUZZ_X))
        X = np.vstack([self.FUZZ_X, self.FUZZ_X[:1]])
        with pytest.raises(ValueError, match="compiled for n=5 graph nodes, "
                                             "input has 6 rows"):
            loaded.execute(star(6), X)
        with pytest.raises(ValueError, match="input X has 2 columns"):
            loaded.execute(star(5), self.FUZZ_X[:, :2])

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

    def test_unknown_field_is_refused(self):
        # a misspelt table once decoded into a pool that read the staged
        # selector, with no error
        with pytest.raises(ValueError, match=(
                r"^softmax_select_pool: unknown field 'selectorz'$")):
            descriptor_from_json({"kind": "softmax_select_pool", "width": 3,
                                  "scale": 2.0, "selectorz": [1]})
        blob = program_to_json(self._pinned_program("deep_gatv2"))
        assert blob["descriptors"][3]["kind"] == "score_accumulate"
        blob["descriptors"][3]["w_qq"] = None
        with pytest.raises(ValueError, match=(
                r"^descriptors\[3\]: score_accumulate: unknown field "
                r"'w_qq'$")):
            program_from_json(blob)
        # so are those of nested dataclass blobs, by class name
        blob = program_to_json(self._rich_program())
        entry = next(j for j, e in enumerate(blob["descriptors"])
                     if e["kind"] == "mlp_stats_pool")
        blob["descriptors"][entry]["pieces"]["sq"]["note"] = 1
        with pytest.raises(ValueError, match=(
                rf"^descriptors\[{entry}\]: mlp_stats_pool: field 'pieces': "
                r"KernelPieces: field 'sq': FittedPiece: unknown field "
                r"'note'$")):
            program_from_json(blob)

    def test_old_additive_pool_kind_decodes_into_the_softmax_pool(self):
        # the v1/v2 gatv2 fixtures and older rich ones name it
        # gatv2_select_pool; its score stays required
        blob = program_to_json(self._rich_program())
        entry = next(e for e in blob["descriptors"]
                     if e["kind"] == "softmax_select_pool"
                     and e["score"] is not None and e["selectors"] is None)
        old = {k: v for k, v in entry.items() if k != "selectors"} \
            | {"kind": "gatv2_select_pool"}
        pool = descriptor_from_json(old)
        assert isinstance(pool, SoftmaxSelectPool)
        assert pool.to_json() == entry
        assert "gatv2_select_pool" not in Descriptor._registry
        for broken, match in ((old | {"score": None}, "missing value for "
                               "field 'score'"),
                              (old | {"slope": 0.2}, "unknown field 'slope'")):
            with pytest.raises(ValueError,
                               match=rf"^gatv2_select_pool: {match}$"):
                descriptor_from_json(broken)
        # the pool's own check names the kind it decoded into
        with pytest.raises(ValueError, match=(
                r"^softmax_select_pool: field 'scale' must be finite")):
            descriptor_from_json(old | {"scale": -1.0})

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

    # the broken-document sweep: each case deletes one object key, or
    # replaces one object or list with one of BREAKERS; the width is the
    # one each fixture's rows have ("rich" is not a program meant to run)
    BREAKERS = [5, "x", [], {}]
    SWEEP_WIDTHS = {"kernel_mlp_trained.v2": 2, "kernel_exact.v1": 3,
                    "deep_gatv2.v1": 3, "deep_oracle.v1": 3, "rich.v1": None,
                    "deep_oracle.v2": 3, "deep_oracle.v3": 3,
                    "deep_softmax.v3": 3, "deep_gatv2.v3": 3}
    # the layers whose accumulation, once it loses w_q, reads a q block
    # that the fixture's 2d+1-wide state does not hold: refused at load
    LOST_W_Q = {"deep_gatv2.v1": range(1, 6), "deep_oracle.v1": range(1, 6),
                "rich.v1": [1]}

    @classmethod
    def _breakages(cls, node, path=()):
        """(path, value) for each broken copy of the JSON value ``node``:
        value None deletes the key at ``path``, any other replaces it."""
        if path and isinstance(node, (dict, list)):
            for value in cls.BREAKERS:
                yield path, value
        children = (node.items() if isinstance(node, dict)
                    else enumerate(node) if isinstance(node, list) else ())
        for key, child in children:
            if isinstance(node, dict):
                yield path + (key,), None
            yield from cls._breakages(child, path + (key,))

    @pytest.mark.parametrize("name", sorted(SWEEP_WIDTHS))
    def test_broken_document_loads_and_runs_or_names_its_place(self, name):
        doc = json.loads((FIXTURES / f"{name}.json").read_text())
        width = self.SWEEP_WIDTHS[name]
        X = numkit.make_rng(4).uniform(-0.2, 0.2, size=(5, width or 1))
        wrong, blocked = [], []
        for path, value in self._breakages(doc):
            broken = copy.deepcopy(doc)
            parent = broken
            for key in path[:-1]:
                parent = parent[key]
            if value is None:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            place = (f"{path[0]}[{path[1]}]" if len(path) > 1
                     and path[0] in ("descriptors", "layers") else path[0])
            try:
                prog = program_from_json(broken)
            except ValueError as exc:
                # an emptied table is found where a layer first indexes it
                if not (place in str(exc) or path == ("descriptors",)
                        and "descriptor table" in str(exc)):
                    wrong.append((path, value, str(exc)))
                if "needs graph-node block" in str(exc):
                    blocked.append(path)
                continue
            except Exception as exc:
                wrong.append((path, value, repr(exc)))
                continue
            try:
                if width is not None:
                    with np.errstate(all="ignore"):
                        prog.execute(star(5), X)
            except ValueError:
                # a run may refuse its input (a deep program that lost its n)
                # or stop on layers whose widths disagree (ROADMAP item 6)
                pass
            except Exception as exc:
                wrong.append((path, value, repr(exc)))
        assert wrong == []
        assert blocked == [("layers", i, "gn_update", "w_q")
                           for i in self.LOST_W_Q.get(name, ())]

    @pytest.mark.parametrize("name", ["deep_oracle", "deep_gatv2"])
    def test_v1_accumulation_without_w_q_is_refused_at_load(self, name):
        # it once loaded, then stopped in layer 2 on numpy's einsum
        # broadcast error: the 2d+1-wide v1 state has no q block to read
        blob = numkit.load_json(self._v1_fixture(name))
        del blob["layers"][2]["gn_update"]["w_q"]
        with pytest.raises(ValueError, match=(
                r"^layers\[2\]\.gn_update: score_accumulate needs graph-node "
                r"block 'q', which a state initialized by \('pad', 7\) does "
                r"not hold for width 3$")):
            program_from_json(blob)

    def test_duplicate_kind_registration_rejected(self):
        with pytest.raises(TypeError, match="duplicate"):
            class Clash(Descriptor):
                kind = "mean_pool"
