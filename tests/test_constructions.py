"""Tests for the attention-to-layer-program compilers and error reports."""

import hashlib
import json
import math
import pathlib
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import deep_trace_oracle, self_attention_oracle
from traces import run_traced
from vnlab import attention, constructions, mlp, numkit
from vnlab.constructions import (
    DeepSimConfig,
    ErrorReport,
    KernelSimConfig,
    attention_host_graph,
    compile_deep_vn,
    compile_kernel_vn,
    make_certified_instance,
    report_csv_row,
    report_to_json,
    run_and_report,
    sweep_deep_amplification,
)
from vnlab.cli import _run_checking_time2
from vnlab.mpnnvn import (
    MpnnVnLayer,
    ScoreAccumulate,
    StageQuery,
    load_program,
    program_from_json,
    program_to_json,
    run_program,
    save_program,
)
from vnlab.separability import (
    SeparabilityCertificate,
    CertificateFailure,
    amplification_for,
    l1_certificate,
    selection_weight_bound,
    three_cluster_line,
    vdelta_certificate,
)

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def sphere_points(n, d, rng, radius=1.0):
    X = rng.normal(size=(n, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True) * radius


# ---------------------------------------------------------------------------
# constant-depth kernel compiler, exact mode
# ---------------------------------------------------------------------------


class TestKernelExact:
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    @pytest.mark.parametrize("d", [1, 3])
    def test_matches_kernelized_attention_exp(self, n, d):
        rng = numkit.make_rng(100 * n + d)
        w = attention.random_weights(d, rng, out_dim=d + 1)
        fm = attention.exp_feature_map(4, d, seed=n)
        X = rng.normal(size=(n, d)) * 0.5
        prog = compile_kernel_vn(w, KernelSimConfig(feature_map=fm))
        got = prog.execute(attention_host_graph(n), X)
        want = attention.approx_attention(X, w, fm)
        assert numkit.max_abs_diff(got, want) <= 1e-12

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_matches_kernelized_attention_elu(self, n):
        rng = numkit.make_rng(n)
        d = 3
        w = attention.random_weights(d, rng)
        fm = attention.elu_feature_map()
        X = rng.normal(size=(n, d)) * 0.7
        prog = compile_kernel_vn(w, KernelSimConfig(feature_map=fm))
        got = prog.execute(attention_host_graph(n), X)
        want = attention.approx_attention(X, w, fm)
        assert numkit.max_abs_diff(got, want) <= 1e-12

    def test_one_program_runs_on_any_node_count(self):
        # kernel programs carry no node count: only deep programs refuse one
        rng = numkit.make_rng(5)
        w = attention.random_weights(3, rng)
        fm = attention.exp_feature_map(4, 3, seed=5)
        prog = compile_kernel_vn(w, KernelSimConfig(feature_map=fm))
        for n in (2, 7):
            X = rng.normal(size=(n, 3)) * 0.5
            got = prog.execute(attention_host_graph(n), X)
            want = attention.approx_attention(X, w, fm)
            assert numkit.max_abs_diff(got, want) <= 1e-12

    def test_single_node_output_is_its_value_projection(self):
        # with one node the kernel weights cancel: the output is x w_v
        rng = numkit.make_rng(0)
        w = attention.random_weights(3, rng, out_dim=2)
        fm = attention.exp_feature_map(8, 3, seed=1)
        X = rng.normal(size=(1, 3)) * 0.5
        prog = compile_kernel_vn(w, KernelSimConfig(feature_map=fm))
        got = prog.execute(attention_host_graph(1), X)
        assert numkit.max_abs_diff(got, X @ w.w_v) <= 1e-12

    def test_permutation_equivariance(self):
        rng = numkit.make_rng(7)
        n, d = 6, 3
        w = attention.random_weights(d, rng)
        fm = attention.exp_feature_map(6, d, seed=2)
        X = rng.normal(size=(n, d)) * 0.5
        prog = compile_kernel_vn(w, KernelSimConfig(feature_map=fm))
        g = attention_host_graph(n)
        perm = rng.permutation(n)
        out = prog.execute(g, X)
        out_perm = prog.execute(g, X[perm])
        assert numkit.max_abs_diff(out_perm, out[perm]) <= 1e-12

    def test_virtual_state_width_invariant(self):
        rng = numkit.make_rng(1)
        d, m, out = 3, 5, 2
        w = attention.random_weights(d, rng, out_dim=out)
        fm = attention.exp_feature_map(m, d, seed=3)
        prog = compile_kernel_vn(w, KernelSimConfig(feature_map=fm))
        assert prog.metadata["vn_width"] == (out + 1) * m
        assert prog.vn_init.shape == ((out + 1) * m,)
        X = rng.normal(size=(4, d)) * 0.5
        states, _ = run_traced(prog.initial_state(X), prog)
        assert states[1].vn.shape == ((out + 1) * m,)

    def test_two_layers_and_metadata(self):
        rng = numkit.make_rng(2)
        w = attention.random_weights(2, rng)
        prog = compile_kernel_vn(
            w, KernelSimConfig(feature_map=attention.elu_feature_map())
        )
        assert len(prog.layers) == 2
        assert prog.provenance == "kernel-attention-compiler"
        assert prog.metadata["mode"] == "exact"
        assert prog.metadata["feature_kind"] == "elu_features"

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            KernelSimConfig(feature_map=attention.elu_feature_map(),
                            mode="quantum")

    def test_nan_input_row_raises(self):
        # one NaN row poisons the pooled statistics of every node
        rng = numkit.make_rng(6)
        w = attention.random_weights(3, rng)
        prog = compile_kernel_vn(
            w, KernelSimConfig(feature_map=attention.exp_feature_map(4, 3, 1))
        )
        X = rng.normal(size=(6, 3)) * 0.5
        X[2, 1] = np.nan
        with pytest.raises(ValueError, match="denominator"):
            prog.execute(attention_host_graph(6), X)


# ---------------------------------------------------------------------------
# constant-depth kernel compiler, mlp mode
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mlp_kernel_setup():
    """One mlp-mode compile per feature kind, shared across tests."""
    rng = numkit.make_rng(3)
    d, n, m = 2, 6, 4
    w = attention.random_weights(d, rng, feature_bound=0.4)
    out = {}
    for fm in (attention.exp_feature_map(m, d, seed=11),
               attention.elu_feature_map()):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cfg = KernelSimConfig(feature_map=fm, mode="mlp",
                                  feature_bound=0.4, seed=5)
            prog = compile_kernel_vn(w, cfg)
        out[fm.kind] = (fm, prog)
    X = rng.normal(size=(n, d))
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    X = X * (0.4 * rng.uniform(0.5, 1.0, size=(n, 1)))
    return w, X, out


class TestKernelMlpMode:
    def test_error_small_but_above_exact(self, mlp_kernel_setup):
        w, X, progs = mlp_kernel_setup
        g = attention_host_graph(X.shape[0])
        for kind, (fm, prog) in progs.items():
            want = attention.approx_attention(X, w, fm)
            got = prog.execute(g, X)
            err = numkit.max_abs_diff(got, want)
            exact = compile_kernel_vn(w, KernelSimConfig(feature_map=fm))
            exact_err = numkit.max_abs_diff(exact.execute(g, X), want)
            assert err < 1e-2, kind
            assert err > exact_err, kind

    def test_piece_fits_meet_targets(self, mlp_kernel_setup):
        _, _, progs = mlp_kernel_setup
        for kind, (_, prog) in progs.items():
            for name, fit in prog.metadata["piece_fits"].items():
                assert fit["sup_error"] <= fit["target"], (kind, name)

    def test_metadata_records_bounds(self, mlp_kernel_setup):
        _, _, progs = mlp_kernel_setup
        _, prog = progs["exp_features"]
        bounds = prog.metadata["bounds"]
        assert bounds["den_lo"] > 0
        assert bounds["inv_max"] == pytest.approx(1.0 / bounds["den_lo"])
        assert bounds["arg_hi"] > bounds["arg_lo"]

    def test_program_json_round_trip_is_bitwise(self, mlp_kernel_setup):
        w, X, progs = mlp_kernel_setup
        g = attention_host_graph(X.shape[0])
        _, prog = progs["exp_features"]
        clone = program_from_json(program_to_json(prog))
        assert np.array_equal(clone.execute(g, X), prog.execute(g, X))

    def test_starved_fit_budget_warns(self):
        rng = numkit.make_rng(9)
        w = attention.random_weights(2, rng, feature_bound=0.4)
        cfg = KernelSimConfig(
            feature_map=attention.elu_feature_map(), mode="mlp",
            feature_bound=0.4, seed=1, piece_epochs=40, piece_restarts=1,
        )
        with pytest.warns(RuntimeWarning, match="sup error"):
            compile_kernel_vn(w, cfg)

    def test_starved_fit_budget_warns_only_for_recip(self):
        # sq and the kernel nonlinearity are built, not trained, so only the
        # trained recip piece can miss its target
        rng = numkit.make_rng(9)
        w = attention.random_weights(2, rng, feature_bound=0.4)
        cfg = KernelSimConfig(
            feature_map=attention.elu_feature_map(), mode="mlp",
            feature_bound=0.4, seed=1, piece_epochs=40, piece_restarts=1,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            compile_kernel_vn(w, cfg)
        messages = [str(c.message) for c in caught
                    if issubclass(c.category, RuntimeWarning)]
        assert messages
        assert all("'recip'" in m for m in messages), messages

    # sha256 of numkit.dump_json of the exp-features compile's recip piece
    # parameters and of its probed bounds: the probe and the trained recip
    # piece are unchanged by building sq and exp
    RECIP_PARAMS_SHA256 = (
        "12061aaf8902f25147e336f3bde90a63532342cda2b2dd9f097665e483c84094")
    BOUNDS_SHA256 = (
        "32d4657771ef218971065bc1ab3adb989085905fe3ca276174a08692af9f014d")

    def test_recip_piece_and_bounds_are_pinned(self, mlp_kernel_setup,
                                               tmp_path):
        _, _, progs = mlp_kernel_setup
        _, prog = progs["exp_features"]
        recip = prog.layers[0].vn_pool.pieces.recip

        def digest(blob):
            path = tmp_path / "blob.json"
            numkit.dump_json(blob, path)
            return hashlib.sha256(path.read_bytes()).hexdigest()

        assert digest(mlp.params_to_json(recip.params)) \
            == self.RECIP_PARAMS_SHA256
        assert digest(prog.metadata["bounds"]) == self.BOUNDS_SHA256

    # tests/fixtures/kernel_mlp_trained.v2.json is the exp-features program
    # of mlp_kernel_setup as saved while every piece was a trained ELU
    # network, with the sha256 of the document and of its output bytes on
    # the fixture's inputs at that time
    TRAINED_DOC_SHA256 = (
        "95e247e8c31ad7d594121682ee081b82ac333e49c1a7d269b64a9569a3cfeb1a")
    TRAINED_OUT_SHA256 = (
        "873d92b6e97c2bd9c6a32cfd3d8ba524dfb664e3b56c04d13c11001558694b49")

    def test_document_with_trained_pieces_runs_as_before(self,
                                                         mlp_kernel_setup,
                                                         tmp_path):
        _, X, _ = mlp_kernel_setup
        path = FIXTURES / "kernel_mlp_trained.v2.json"
        assert hashlib.sha256(path.read_bytes()).hexdigest() \
            == self.TRAINED_DOC_SHA256
        prog = load_program(path)
        out = prog.execute(attention_host_graph(X.shape[0]), X)
        assert hashlib.sha256(out.tobytes()).hexdigest() \
            == self.TRAINED_OUT_SHA256
        resaved = tmp_path / "resaved.json"
        save_program(prog, resaved)
        assert resaved.read_bytes() == path.read_bytes()


def _max_f2(name, lo, hi):
    """max |f''| over [lo, hi] for the built functions."""
    if name == "sq":
        return 2.0
    if name == "exp":
        return float(np.exp(hi))
    # elu(t) + 1 has f'' = exp(t) for t < 0 and 0 for t > 0
    return float(np.exp(min(hi, 0.0))) if lo < 0 else 0.0


_FUNCTIONS = {"sq": lambda t: t * t, "exp": np.exp,
              "elu_plus_one": lambda t: np.where(t < 0, np.expm1(t), t) + 1.0}


class TestBuiltPieces:
    """The sq and kernel pieces are piecewise-linear ReLU interpolants."""

    @staticmethod
    def check_piece(name, lo, hi, target):
        piece = constructions._build_piece(name, lo, hi, target)
        f = _FUNCTIONS[name]
        H = piece.params.spec.widths[1] - 1
        assert piece.params.spec.widths == (1, H + 1, 1)
        assert piece.params.spec.activation == "relu"
        max_f2 = _max_f2(name, lo, hi)
        assert H == max(1, math.ceil((hi - lo) * math.sqrt(
            max_f2 / (8 * constructions._BOUND_SLACK * target))))
        h = (hi - lo) / H
        bound = h * h * max_f2 / 8
        assert bound < target
        knots = np.linspace(lo, hi, H + 1)
        # roundoff allowance: 1e-12 of the function's size on the window
        tol = 1e-12 * max(1.0, float(np.max(np.abs(f(knots)))))
        # the lattice error, and the error at every knot midpoint, where
        # the interpolation error of a convex piece peaks
        lattice = np.linspace(lo, hi, 2049)
        assert piece.sup_error == float(np.max(np.abs(
            constructions._piece_eval(piece, lattice) - f(lattice))))
        assert piece.sup_error <= piece.target
        mids = (knots[:-1] + knots[1:]) / 2
        for t in (lattice, mids):
            err = np.abs(constructions._piece_eval(piece, t) - f(t))
            assert np.max(err) <= bound + tol, (name, lo, hi)
        assert np.max(np.abs(constructions._piece_eval(piece, knots)
                             - f(knots))) <= tol
        # outside the window both end segments continue linearly
        s_lo = (f(knots[1]) - f(knots[0])) / (knots[1] - knots[0])
        s_hi = (f(knots[-1]) - f(knots[-2])) / (knots[-1] - knots[-2])
        steps = np.array([0.01, 0.5, 3.0]) * (hi - lo)
        below, above = lo - steps, hi + steps
        scale = tol * (1.0 + abs(s_lo) + abs(s_hi)) * 10
        assert np.allclose(constructions._piece_eval(piece, below),
                           f(knots[0]) + s_lo * (below - lo),
                           rtol=1e-12, atol=scale)
        assert np.allclose(constructions._piece_eval(piece, above),
                           f(knots[-1]) + s_hi * (above - hi),
                           rtol=1e-12, atol=scale)
        return piece, H

    def test_sq_on_its_fixed_window(self):
        _, H = self.check_piece("sq", constructions._SQ_LO,
                                constructions._SQ_HI,
                                constructions._SQ_TARGET)
        assert H == 41

    @pytest.mark.parametrize("lo,hi", [(-0.58, 0.49), (-3.0, -1.0),
                                       (0.5, 2.5), (-1.0, 1.0)])
    @pytest.mark.parametrize("target", [1e-3, 1e-4])
    def test_exp_windows(self, lo, hi, target):
        self.check_piece("exp", lo, hi, target)

    @settings(max_examples=40, deadline=None)
    @given(lo=st.floats(-4.0, 2.0), width=st.floats(1e-3, 3.0),
           target=st.floats(1e-4, 1e-1),
           name=st.sampled_from(["exp", "elu_plus_one"]))
    def test_random_windows(self, lo, width, target, name):
        self.check_piece(name, lo, lo + width, target)

    @pytest.mark.parametrize("lo,hi,H", [
        (-2.0, -0.5, None),  # below 0: f'' = exp(t)
        (-0.46, 0.46, None),  # across 0: max |f''| = 1
        (0.2, 3.0, 1),  # above 0: f is linear, one segment is exact
    ], ids=["below", "across", "above"])
    def test_elu_plus_one_windows(self, lo, hi, H):
        piece, got = self.check_piece("elu_plus_one", lo, hi, 1e-3)
        if H is not None:
            assert got == H
            assert piece.sup_error <= 1e-15

    def test_mul_via_sq_meets_its_documented_bound(self):
        sq = constructions._build_piece("sq", constructions._SQ_LO,
                                        constructions._SQ_HI,
                                        constructions._SQ_TARGET)
        rng = numkit.make_rng(21)
        H = sq.params.spec.widths[1] - 1
        knots = np.linspace(constructions._SQ_LO, constructions._SQ_HI, H + 1)
        mids = (knots[:-1] + knots[1:]) / 2
        for bound_a, bound_b in ((1.0, 1.0), (0.37, 5.5), (12.0, 0.02)):
            a = rng.uniform(-1, 1, size=400)
            b = rng.uniform(-1, 1, size=400)
            # worst pairs: a + b at a knot midpoint and a - b at a knot
            m = rng.choice(mids[np.abs(mids) <= 1.0], size=200)
            k = rng.choice(knots[np.abs(knots) <= 1.0], size=200)
            a = np.concatenate([a, (m + k) / 2, [1, 1, -1, -1, 0]])
            b = np.concatenate([b, (m - k) / 2, [1, -1, 1, -1, 0]])
            a, b = a * bound_a, b * bound_b
            err = np.abs(constructions._mul_via_sq(sq, a, b, bound_a, bound_b)
                         - a * b)
            assert np.max(err) <= bound_a * bound_b * sq.sup_error / 2


# ---------------------------------------------------------------------------
# linear-depth compiler, oracle selection
# ---------------------------------------------------------------------------


class TestDeepOracle:
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    @pytest.mark.parametrize("d", [1, 4])
    def test_matches_full_attention(self, n, d):
        rng = numkit.make_rng(10 * n + d)
        w = attention.random_weights(d, rng)
        X = rng.normal(size=(n, d)) * 0.6
        prog = compile_deep_vn(w, DeepSimConfig(n=n, selection="oracle"))
        got = prog.execute(attention_host_graph(n), X)
        want = attention.self_attention(X, w)
        assert numkit.max_abs_diff(got, want) <= 1e-10

    @given(st.integers(2, 8), st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_matches_python_softmax_oracle(self, n, d, seed):
        rng = numkit.make_rng(seed)
        w = attention.random_weights(d, rng)
        X = rng.normal(size=(n, d)) * 0.5
        prog = compile_deep_vn(w, DeepSimConfig(n=n, selection="oracle"))
        got = prog.execute(attention_host_graph(n), X)
        want = self_attention_oracle(X, w.w_q, w.w_k, w.w_v)
        assert numkit.max_abs_diff(got, want) <= 1e-10

    def test_depth_is_n_plus_two(self):
        rng = numkit.make_rng(0)
        w = attention.random_weights(3, rng)
        prog = compile_deep_vn(w, DeepSimConfig(n=7, selection="oracle"))
        assert len(prog.layers) == 9
        assert prog.metadata == {
            "compiler": "deep", "selection": "oracle", "n": 7, "d": 3,
            "c": None,
        }

    def test_trace_matches_reference_exactly(self):
        # not approximately: the engine must reproduce the hand-rolled
        # per-step reference trace bit for bit
        rng = numkit.make_rng(42)
        n, d = 5, 3
        X = rng.normal(size=(n, d)) * 0.6
        w = attention.random_weights(d, rng)
        prog = compile_deep_vn(w, DeepSimConfig(n=n, selection="oracle"))
        states, _ = run_traced(prog.initial_state(X), prog)
        selectors = np.zeros((n, d))
        for t in (0, 1, 2, n, n + 1, n + 2):
            gn_want, vn_want = deep_trace_oracle(
                X, selectors, w.w_q, w.w_k, w.w_v, t
            )
            assert np.array_equal(states[t].gn, gn_want), t
            assert np.array_equal(states[t].vn, vn_want), t

    def test_state_layout_through_time(self):
        rng = numkit.make_rng(4)
        n, d = 4, 2
        X = rng.normal(size=(n, d)) * 0.5
        w = attention.random_weights(d, rng)
        prog = compile_deep_vn(w, DeepSimConfig(n=n, selection="oracle"))
        states, _ = run_traced(prog.initial_state(X), prog)
        for t in range(n + 2):
            # graph nodes carry the raw feature up front until the final
            # normalization overwrites it with the output
            assert np.array_equal(states[t].gn[:, :d], X), t
        for k in range(1, n + 1):
            # after layer k the virtual node holds node k-1's feature and a
            # zeroed placeholder channel
            assert np.array_equal(states[k].vn[:d], X[k - 1])
            assert states[k].vn[2 * d] == 0.0
        assert np.array_equal(states[n + 1].vn, np.ones(2 * d + 1))
        assert np.array_equal(states[n + 2].vn, np.ones(2 * d + 1))

    def test_requires_square_weights(self):
        rng = numkit.make_rng(0)
        w = attention.random_weights(3, rng, out_dim=2)
        with pytest.raises(ValueError, match="square"):
            compile_deep_vn(w, DeepSimConfig(n=4, selection="oracle"))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="selection"):
            DeepSimConfig(n=3, selection="psychic")
        with pytest.raises(ValueError, match="at least one"):
            DeepSimConfig(n=0)

    @pytest.mark.parametrize("bad", [0.0, -5.0, float("nan"), float("inf")])
    def test_amplification_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="amplification"):
            DeepSimConfig(n=6, selection="softmax", amplification=bad)
        with pytest.raises(ValueError, match="amplification"):
            SeparabilityCertificate(np.ones((2, 1)), np.ones(2),
                                    amplification=bad, eps=1e-4)

    def test_nan_input_row_raises(self):
        # one NaN row enters every node's accumulated mass
        rng = numkit.make_rng(6)
        w = attention.random_weights(3, rng)
        prog = compile_deep_vn(w, DeepSimConfig(n=6, selection="oracle"))
        X = rng.normal(size=(6, 3)) * 0.5
        X[2, 1] = np.nan
        with pytest.raises(ValueError, match="mass"):
            prog.execute(attention_host_graph(6), X)

    def test_trace_matches_reference_at_benchmark_shape(self):
        # the deep-oracle benchmark's shape: 256 rows of width 8, checked
        # bitwise after the last accumulation layer (time n+1)
        rng = numkit.make_rng(256)
        n, d = 256, 8
        X = rng.normal(size=(n, d)) * 0.6
        w = attention.random_weights(d, rng)
        prog = compile_deep_vn(w, DeepSimConfig(n=n, selection="oracle"))
        seen = {}

        def keep(k, state, aux):
            if k == n + 1:
                seen["state"] = state

        run_program(prog.initial_state(X), prog, observe=keep)
        gn_want, vn_want = deep_trace_oracle(
            X, np.zeros((n, d)), w.w_q, w.w_k, w.w_v, n + 1
        )
        assert np.array_equal(seen["state"].gn, gn_want)
        assert np.array_equal(seen["state"].vn, vn_want)

    def test_refuses_other_node_count(self, tmp_path):
        # compiled for 6 rows, a deep program on 8 would select only the
        # first 6 and still report tight selection bounds
        rng = numkit.make_rng(13)
        w = attention.random_weights(3, rng)
        prog = compile_deep_vn(w, DeepSimConfig(n=6, selection="oracle"))
        X = rng.normal(size=(8, 3)) * 0.5
        match = "compiled for n=6 graph nodes, input has 8 rows"
        with pytest.raises(ValueError, match=match):
            prog.execute(attention_host_graph(8), X)
        with pytest.raises(ValueError, match=match):
            run_and_report(X, prog, w)
        with pytest.raises(ValueError, match=match):
            _run_checking_time2(X, w, prog)
        path = tmp_path / "deep.json"
        save_program(prog, path)
        with pytest.raises(ValueError, match=match):
            load_program(path).execute(attention_host_graph(8), X)
        # a document that lost its node count refuses every input
        blob = program_to_json(prog)
        del blob["metadata"]["n"]
        with pytest.raises(ValueError, match="compiled for n=None"):
            program_from_json(blob).execute(attention_host_graph(6), X[:6])

    def test_time2_check_reads_the_staged_query(self):
        # accumulations that recompute q from x keep every acc and mass
        # bitwise, so only the query check sees that layer 1 staged zeros
        rng = numkit.make_rng(17)
        n, d = 5, 3
        w = attention.random_weights(d, rng)
        X = rng.normal(size=(n, d)) * 0.5
        prog = compile_deep_vn(w, DeepSimConfig(n=n, selection="oracle"))
        got, exact = _run_checking_time2(X, w, prog)
        assert exact
        before = prog.execute(attention_host_graph(n), X)
        assert np.array_equal(got, before)
        recompute = ScoreAccumulate(w.w_q, w.w_k, w.w_v, width=d)
        first = prog.layers[0]
        prog.layers = [MpnnVnLayer(first.vn_pool, first.vn_update,
                                   StageQuery(np.zeros((d, d)), width=d))] + [
            MpnnVnLayer(l.vn_pool, l.vn_update,
                        recompute if isinstance(l.gn_update, ScoreAccumulate)
                        else l.gn_update)
            for l in prog.layers[1:]]
        assert np.array_equal(prog.execute(attention_host_graph(n), X),
                              before)
        assert not _run_checking_time2(X, w, prog)[1]


# ---------------------------------------------------------------------------
# linear-depth compiler, amplified-softmax selection
# ---------------------------------------------------------------------------


class TestDeepSoftmax:
    def test_certified_instance_properties(self):
        rng = numkit.make_rng(5)
        X, cert = make_certified_instance(6, 3, rng, min_delta=0.1)
        assert isinstance(cert, SeparabilityCertificate)
        assert cert.delta >= 0.1
        assert cert.n == 6
        np.testing.assert_allclose(np.linalg.norm(X, axis=1), 1.0)

    def test_selection_bounds_hold_per_layer(self):
        rng = numkit.make_rng(6)
        n, d = 6, 3
        X, cert = make_certified_instance(n, d, rng)
        w = attention.random_weights(d, rng)
        prog = compile_deep_vn(
            w, DeepSimConfig(n=n, selection="softmax", certificate=cert)
        )
        rep = run_and_report(X, prog, w, reference="full", cert=cert,
                             feature_bound=1.0)
        assert len(rep.selection) == n
        for entry in rep.selection:
            assert entry["weight"] >= entry["weight_bound"] - 1e-12
            assert entry["feature_error"] <= entry["feature_error_bound"] + 1e-12
            assert entry["weight_ok"] and entry["feature_error_ok"]
        assert rep.bounds_ok

    def test_default_amplification_meets_eps_weight(self):
        # the certificate's own amplification guarantees weight >= 1 - eps
        rng = numkit.make_rng(7)
        n, d = 5, 2
        X, cert = make_certified_instance(n, d, rng)
        w = attention.random_weights(d, rng)
        prog = compile_deep_vn(
            w, DeepSimConfig(n=n, selection="softmax", certificate=cert)
        )
        rep = run_and_report(X, prog, w, reference="full", cert=cert)
        for entry in rep.selection:
            assert entry["weight"] >= 1.0 - cert.eps - 1e-12
        assert rep.max_abs < 1e-2

    def test_error_decreases_with_amplification(self):
        reports = sweep_deep_amplification(
            n=6, d=2, factors=(2.0, 4.0, 8.0, 16.0), seeds=(0, 1, 2)
        )
        medians = [
            float(np.median([row[j].max_abs for row in reports]))
            for j in range(4)
        ]
        assert all(a > b for a, b in zip(medians, medians[1:])), medians

    def test_sweep_reports_carry_seed_and_scale(self):
        reports = sweep_deep_amplification(
            n=4, d=2, factors=(4.0,), seeds=(3,)
        )
        rep = reports[0][0]
        assert rep.seed == 3
        assert rep.config["c"] > 0
        assert rep.reference == "full"

    def test_requires_certificate(self):
        rng = numkit.make_rng(0)
        w = attention.random_weights(2, rng)
        with pytest.raises(ValueError, match="certificate"):
            compile_deep_vn(w, DeepSimConfig(n=3, selection="softmax"))

    def test_refuses_certificate_inside_band(self):
        rng = numkit.make_rng(0)
        w = attention.random_weights(2, rng)
        cert = SeparabilityCertificate(
            directions=np.ones((3, 2)),
            margins=np.full(3, 5e-7),
            amplification=1.0,
            eps=1e-4,
            band=1e-6,
        )
        with pytest.raises(ValueError, match="band"):
            compile_deep_vn(
                w, DeepSimConfig(n=3, selection="softmax", certificate=cert)
            )

    def test_refuses_mismatched_certificate_size(self):
        rng = numkit.make_rng(1)
        X, cert = make_certified_instance(4, 2, rng)
        w = attention.random_weights(2, rng)
        with pytest.raises(ValueError, match="covers"):
            compile_deep_vn(
                w, DeepSimConfig(n=5, selection="softmax", certificate=cert)
            )

    def test_inseparable_point_set_fails_certification(self):
        sets = three_cluster_line()
        X = np.vstack(sets)
        result = vdelta_certificate(X)
        assert not result.ok
        assert len(result.inseparable) > 0


# ---------------------------------------------------------------------------
# linear-depth compiler, constructed-score selection
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gatv2_line_setup():
    """The three-cluster line: its middle points defeat bilinear selection."""
    X = np.vstack(three_cluster_line())
    return X, l1_certificate(X)


class TestDeepGatv2:
    def test_selection_tracks_full_attention(self, gatv2_line_setup):
        X, cert = gatv2_line_setup
        n = X.shape[0]
        w = attention.random_weights(1, numkit.make_rng(2))
        prog = compile_deep_vn(w, DeepSimConfig(
            n=n, selection="gatv2", certificate=cert,
        ))
        # one shared score, built from the dimension alone
        assert len({id(layer.vn_pool) for layer in prog.layers[:n]}) == 1
        assert prog.metadata["c"] == cert.amplification
        rep = run_and_report(X, prog, w, reference="full", cert=cert)
        for entry in rep.selection:
            assert entry["weight"] >= 1.0 - cert.eps - 1e-12
            assert entry["weight_ok"] and entry["feature_error_ok"]
        assert rep.bounds_ok
        assert rep.max_abs < 1e-5

    def test_higher_scale_gives_smaller_error(self, gatv2_line_setup):
        X, cert = gatv2_line_setup
        n = X.shape[0]
        w = attention.random_weights(1, numkit.make_rng(2))
        errs = []
        for factor in (0.25, 1.0):
            prog = compile_deep_vn(w, DeepSimConfig(
                n=n, selection="gatv2", certificate=cert,
                amplification=factor * cert.amplification,
            ))
            rep = run_and_report(X, prog, w, reference="full", cert=cert)
            assert rep.bounds_ok
            errs.append(rep.max_abs)
        assert errs[1] < errs[0]

    def test_selects_points_no_bilinear_certificate_covers(self):
        X = np.random.default_rng(2).normal(size=(64, 3))
        assert isinstance(vdelta_certificate(X), CertificateFailure)
        cert = l1_certificate(X)
        w = attention.random_weights(3, numkit.make_rng(3))
        prog = compile_deep_vn(w, DeepSimConfig(
            n=64, selection="gatv2", certificate=cert,
        ))
        rep = run_and_report(X, prog, w, reference="full", cert=cert)
        assert all("weight_ok" in entry for entry in rep.selection)
        assert rep.bounds_ok
        assert rep.max_abs <= 1e-8

    def test_refuses_certificate_for_other_score(self, gatv2_line_setup):
        X, l1 = gatv2_line_setup
        bilinear = SeparabilityCertificate(
            directions=np.ones((X.shape[0], 1)), margins=np.ones(X.shape[0]),
            amplification=1.0, eps=1e-4,
        )
        w = attention.random_weights(1, numkit.make_rng(0))
        with pytest.raises(ValueError, match="'bilinear' certificate"):
            compile_deep_vn(w, DeepSimConfig(
                n=X.shape[0], selection="softmax", certificate=l1,
            ))
        with pytest.raises(ValueError, match="'l1' certificate"):
            compile_deep_vn(w, DeepSimConfig(
                n=X.shape[0], selection="gatv2", certificate=bilinear,
            ))
        with pytest.raises(ValueError, match="requires a certificate"):
            compile_deep_vn(w, DeepSimConfig(n=X.shape[0], selection="gatv2"))

    def test_report_refuses_certificate_for_other_score(self):
        # the same points certified for both scores: each program's weight
        # bounds must come from its own certificate, never the other one
        X, bilinear = make_certified_instance(6, 3, numkit.make_rng(5))
        l1 = l1_certificate(X)
        w = attention.random_weights(3, numkit.make_rng(6))
        gatv2 = compile_deep_vn(w, DeepSimConfig(
            n=6, selection="gatv2", certificate=l1,
        ))
        softmax = compile_deep_vn(w, DeepSimConfig(
            n=6, selection="softmax", certificate=bilinear,
        ))
        with pytest.raises(ValueError, match="gatv2 selection needs a 'l1' "
                           "certificate, got a 'bilinear' one"):
            run_and_report(X, gatv2, w, cert=bilinear)
        with pytest.raises(ValueError, match="softmax selection needs a "
                           "'bilinear' certificate, got a 'l1' one"):
            run_and_report(X, softmax, w, cert=l1)
        assert run_and_report(X, gatv2, w, cert=l1).bounds_ok


# ---------------------------------------------------------------------------
# error reports
# ---------------------------------------------------------------------------


class TestReports:
    def _kernel_report(self):
        rng = numkit.make_rng(11)
        d, n = 3, 5
        w = attention.random_weights(d, rng)
        fm = attention.exp_feature_map(4, d, seed=1)
        X = rng.normal(size=(n, d)) * 0.5
        prog = compile_kernel_vn(w, KernelSimConfig(feature_map=fm))
        return run_and_report(X, prog, w, reference="kernel", fm=fm, seed=11)

    def test_kernel_reference_report(self):
        rep = self._kernel_report()
        assert rep.reference == "kernel"
        assert rep.max_abs <= 1e-12
        assert rep.selection == []
        assert len(rep.per_node) == 5
        assert rep.max_rel >= 0.0
        assert rep.rng_algorithm == "pcg64"

    def test_report_json_shape(self):
        rep = self._kernel_report()
        blob = report_to_json(rep)
        assert blob["format"] == "error-report/v1"
        assert blob["seed"] == 11
        assert set(blob) == {"format"} | {f.name for f in fields(ErrorReport)}
        assert json.dumps(blob)  # plain JSON, no numpy leftovers

    def test_full_reference_mismatched_reference_errors(self):
        rng = numkit.make_rng(0)
        w = attention.random_weights(2, rng)
        X = rng.normal(size=(3, 2)) * 0.5
        prog = compile_deep_vn(w, DeepSimConfig(n=3, selection="oracle"))
        with pytest.raises(ValueError, match="reference"):
            run_and_report(X, prog, w, reference="spectral")
        with pytest.raises(ValueError, match="feature map"):
            run_and_report(X, prog, w, reference="kernel")

    def test_csv_round_trip(self):
        reports = sweep_deep_amplification(
            n=4, d=2, factors=(2.0, 8.0), seeds=(0,)
        )[0]
        rows = [report_csv_row(rep) for rep in reports]
        assert all(len(row) == 7 for row in rows)
        assert rows[0][:3] == ("0", "4", "2")
        assert rows[0][6] == "true"
        # repr round-trip keeps every bit of the error values
        assert float(rows[0][4]) == reports[0].max_abs
        assert float(rows[1][4]) == reports[1].max_abs

    def test_per_node_rel_guards_small_references(self):
        rep = ErrorReport(
            reference="full", max_abs=0.0, mean_abs=0.0, max_rel=0.0,
            per_node=[], selection=[], config={}, seed=None,
        )
        assert rep.bounds_ok  # no selection entries: vacuously satisfied

    @staticmethod
    def _per_node_by_rows(got, want):
        # the per-row construction run_and_report used before it computed
        # the row maxima and the division once, over the whole array
        diff = np.abs(got - want)
        per_node = []
        for i in range(got.shape[0]):
            abs_i = float(diff[i].max())
            ref_i = float(np.max(np.abs(want[i])))
            per_node.append({"node": i, "abs": abs_i,
                             "rel": abs_i / max(ref_i, 1e-12)})
        return per_node

    @pytest.mark.parametrize("kind", ["deep", "kernel", "softmax"])
    def test_per_node_errors_equal_the_per_row_construction(self, kind):
        rng = numkit.make_rng(31)
        n, d = 9, 3
        fm, cert = None, None
        if kind == "softmax":
            X, cert = make_certified_instance(n, d, rng)
        else:
            X = rng.normal(size=(n, d)) * 0.5
        w = attention.random_weights(d, rng)
        if kind == "kernel":
            fm = attention.exp_feature_map(8, d, seed=3)
            prog = compile_kernel_vn(w, KernelSimConfig(feature_map=fm))
            want = attention.approx_attention(X, w, fm)
        else:
            prog = compile_deep_vn(w, DeepSimConfig(
                n=n, selection="oracle" if kind == "deep" else "softmax",
                certificate=cert))
            want = attention.self_attention(X, w)
        rep = run_and_report(X, prog, w, fm=fm, cert=cert,
                             reference="kernel" if kind == "kernel" else "full")
        got = prog.extract(run_program(prog.initial_state(X), prog))
        by_rows = self._per_node_by_rows(got, want)
        blob = report_to_json(rep)
        expected = {**blob, "per_node": by_rows,
                    "max_rel": max(e["rel"] for e in by_rows)}
        assert json.dumps(blob, sort_keys=True) == \
            json.dumps(expected, sort_keys=True)

    def test_failed_weight_bound_fails_bounds_ok(self):
        entry = {"layer": 1, "target": 0, "feature_error_ok": True,
                 "weight_ok": False}
        rep = ErrorReport(
            reference="full", max_abs=0.0, mean_abs=0.0, max_rel=0.0,
            per_node=[], selection=[entry], config={}, seed=None,
        )
        assert not rep.bounds_ok
        entry["weight_ok"] = True
        assert rep.bounds_ok

    def test_non_finite_output_fails_bounds_ok(self):
        # exp(q.k) overflows in the accumulation at this scale, while the
        # reference softmax shifts by the row max and stays finite; oracle
        # selection adds no selection checks that could catch it
        w = attention.random_weights(4, np.random.default_rng(0))
        prog = compile_deep_vn(w, DeepSimConfig(n=16, selection="oracle"))
        X = np.random.default_rng(1).normal(size=(16, 4)) * 30
        with np.errstate(over="ignore", invalid="ignore"):
            rep = run_and_report(X, prog, w)
        assert math.isnan(rep.max_abs)
        assert all("weight_ok" not in e for e in rep.selection)
        assert not rep.bounds_ok
        assert report_csv_row(rep)[-1] == "false"


# ---------------------------------------------------------------------------
# program persistence across compilers
# ---------------------------------------------------------------------------


class TestPersistence:
    def test_deep_program_round_trip_bitwise(self):
        rng = numkit.make_rng(13)
        n, d = 4, 2
        X, cert = make_certified_instance(n, d, rng)
        w = attention.random_weights(d, rng)
        prog = compile_deep_vn(
            w, DeepSimConfig(n=n, selection="softmax", certificate=cert)
        )
        clone = program_from_json(program_to_json(prog))
        g = attention_host_graph(n)
        assert np.array_equal(clone.execute(g, X), prog.execute(g, X))
        assert clone.metadata == prog.metadata

    def test_exact_kernel_program_round_trip_bitwise(self):
        rng = numkit.make_rng(14)
        d = 3
        w = attention.random_weights(d, rng)
        fm = attention.exp_feature_map(5, d, seed=4)
        prog = compile_kernel_vn(w, KernelSimConfig(feature_map=fm))
        clone = program_from_json(program_to_json(prog))
        X = rng.normal(size=(6, d)) * 0.5
        g = attention_host_graph(6)
        assert np.array_equal(clone.execute(g, X), prog.execute(g, X))
