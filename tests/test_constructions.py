"""Tests for the attention-to-layer-program compilers and error reports."""

import copy
import hashlib
import json
import math
import pathlib
import re
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (deep_trace_oracle, probe_bounds_oracle, random_network,
                     self_attention_oracle, time2_rows_oracle)
from traces import gn_matrix, run_stepwise
from vnlab import (attention, constructions, deepsets, mlp, mpnnvn, numkit,
                   separability)
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
    NodeState,
    OracleSelectPool,
    ScoreAccumulate,
    SelectorAdvance,
    SoftmaxSelectPool,
    StageQuery,
    load_program,
    program_from_json,
    program_to_json,
    run_layer,
    run_program,
    save_program,
)
from vnlab.separability import (
    CERT_EPS,
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
        states, _ = run_stepwise(prog.initial_state(X), prog)
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

    # sha256 of the output bytes of one wide exact-mode program, recorded
    # while phi_matrix still built its features from fresh temporaries
    WIDE_OUT_SHA256 = (
        "e1c07378ed5299e6cb4de7ac79261e2bf6c604218603d3e71b22a43f955e512e")

    def test_wide_output_is_pinned(self):
        rng = numkit.make_rng(24)
        n, d, m = 1024, 16, 256
        w = attention.random_weights(d, rng)
        fm = attention.exp_feature_map(m, d, seed=25)
        X = rng.normal(size=(n, d)) * 0.25
        prog = compile_kernel_vn(w, KernelSimConfig(feature_map=fm))
        out = prog.execute(attention_host_graph(n), X)
        assert hashlib.sha256(out.tobytes()).hexdigest() \
            == self.WIDE_OUT_SHA256
        assert np.array_equal(out, attention.approx_attention(X, w, fm))

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            KernelSimConfig(feature_map=attention.elu_feature_map(),
                            mode="quantum")

    @pytest.mark.parametrize("mode", ["exact", "mlp"])
    @pytest.mark.parametrize("bound", [0.0, -0.4, float("nan"),
                                       float("inf")])
    def test_feature_bound_must_be_finite_and_positive(self, mode, bound):
        with pytest.raises(ValueError, match="feature_bound must be finite "
                                             "and positive"):
            KernelSimConfig(feature_map=attention.elu_feature_map(),
                            mode=mode, feature_bound=bound)

    @pytest.mark.parametrize("name", ["probe_batches", "piece_epochs",
                                      "piece_restarts"])
    def test_probe_batches_and_restarts_are_at_least_one(self, name):
        with pytest.raises(ValueError, match=f"{name} must be at least 1, "
                                             "got 0"):
            KernelSimConfig(feature_map=attention.elu_feature_map(),
                            mode="mlp", **{name: 0})
        # the smallest budget in use: the benchmark's mlp warm-up
        cfg = KernelSimConfig(feature_map=attention.elu_feature_map(),
                              mode="mlp", feature_bound=0.4, probe_batches=2,
                              piece_epochs=200, piece_restarts=1)
        assert (cfg.probe_batches, cfg.piece_restarts) == (2, 1)

    @pytest.mark.parametrize("make,message", [
        (lambda fm: DeepSimConfig(n=4.0), "n must be an integer, got 4.0"),
        (lambda fm: DeepSimConfig(n=2.5), "n must be an integer, got 2.5"),
        (lambda fm: DeepSimConfig(n=True), "n must be an integer, got True"),
        (lambda fm: KernelSimConfig(feature_map=fm, mode="mlp",
                                    probe_batches=2.5),
         "probe_batches must be an integer, got 2.5"),
        (lambda fm: KernelSimConfig(feature_map=fm, piece_epochs=6000.0),
         "piece_epochs must be an integer, got 6000.0"),
        (lambda fm: KernelSimConfig(feature_map=fm, piece_restarts=False),
         "piece_restarts must be an integer, got False"),
        (lambda fm: KernelSimConfig(feature_map=fm, mode="mlp", seed=1.5),
         "seed must be an integer, got 1.5"),
        (lambda fm: KernelSimConfig(feature_map=fm, mode="mlp", seed=-1),
         "seed must be at least 0, got -1"),
    ], ids=["n-float", "n-fraction", "n-bool", "probe-batches-fraction",
            "epochs-float", "restarts-bool", "seed-fraction",
            "seed-negative"])
    def test_config_counts_and_seed_must_be_integers(self, make, message):
        # each of these once failed late (mid-compile, inside the probe or
        # in numpy's seeding) or compiled a wrong program (n=True)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(attention.elu_feature_map())

    def test_numpy_integer_counts_and_seed_are_accepted(self):
        rng = numkit.make_rng(2)
        w = attention.random_weights(2, rng, feature_bound=0.4)
        X = rng.normal(size=(4, 2)) * 0.2
        # stored as a Python int, so the program and its report save as
        # JSON (an np.int64 n once reached the metadata and failed to save)
        cfg = DeepSimConfig(n=np.int64(4))
        assert type(cfg.n) is int
        deep, plain = (compile_deep_vn(w, c)
                       for c in (cfg, DeepSimConfig(n=4)))
        assert json.dumps(program_to_json(deep)) \
            == json.dumps(program_to_json(plain))
        assert json.dumps(report_to_json(run_and_report(X, deep, w))) \
            == json.dumps(report_to_json(run_and_report(X, plain, w)))
        fm = attention.elu_feature_map()
        docs = [json.dumps(program_to_json(compile_kernel_vn(
            w, KernelSimConfig(feature_map=fm, mode="mlp", feature_bound=0.4,
                               seed=seed, probe_batches=batches))),
            sort_keys=True)
            for seed, batches in ((np.uint8(5), np.int32(3)), (5, 3))]
        assert docs[0] == docs[1]

    def test_nan_input_row_raises(self):
        # execute refuses the input; a state holding it anyway poisons the
        # pooled statistics of every node, and the resolution refuses that
        rng = numkit.make_rng(6)
        w = attention.random_weights(3, rng)
        prog = compile_kernel_vn(
            w, KernelSimConfig(feature_map=attention.exp_feature_map(4, 3, 1))
        )
        X = rng.normal(size=(6, 3)) * 0.5
        X[2, 1] = np.nan
        with pytest.raises(ValueError, match=r"input X contains non-finite "
                                             r"entries, the first nan at "
                                             r"\(2, 1\)"):
            prog.execute(attention_host_graph(6), X)
        with pytest.raises(ValueError, match="denominator"):
            run_program(NodeState({"x": X}, prog.vn_init.copy()), prog)


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

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 8), m=st.integers(1, 64),
           out_dim=st.integers(1, 8), batches=st.integers(1, 20),
           feature_bound=st.floats(0.03, 2.0), seed=st.integers(0, 2**32),
           kind=st.sampled_from(["exp_features", "elu_features"]))
    def test_probe_equals_the_batch_by_batch_loop(self, d, m, out_dim,
                                                  batches, feature_bound,
                                                  seed, kind):
        # the stacked probe takes the same max and min over the same
        # values as the loop, so every bound is bitwise the loop's
        w = attention.random_weights(d, numkit.make_rng(seed),
                                     out_dim=out_dim,
                                     feature_bound=feature_bound)
        fm = attention.exp_feature_map(m, d, seed) \
            if kind == "exp_features" else attention.elu_feature_map()
        cfg = KernelSimConfig(feature_map=fm, mode="mlp",
                              feature_bound=feature_bound, seed=seed,
                              probe_batches=batches)
        got = constructions._probe_kernel_domains(w, cfg)
        want = probe_bounds_oracle(w, cfg)
        assert got == want
        assert list(got) == list(want)

    def test_sq_is_built_once_and_shared(self, monkeypatch):
        real = constructions._build_piece
        built = []

        def counting(name, *args):
            built.append(name)
            return real(name, *args)

        monkeypatch.setattr(constructions, "_build_piece", counting)
        constructions._sq_piece.cache_clear()
        w = attention.random_weights(2, numkit.make_rng(4),
                                     feature_bound=0.4)
        progs = [compile_kernel_vn(w, KernelSimConfig(
            feature_map=fm, mode="mlp", feature_bound=0.4, seed=5))
            for fm in (attention.exp_feature_map(4, 2, seed=11),
                       attention.elu_feature_map())]
        assert built.count("sq") == 1
        assert len(built) == 5  # plus the expish and recip of each
        sq = progs[0].layers[0].vn_pool.pieces.sq
        for prog in progs:
            assert prog.layers[0].vn_pool.pieces.sq is sq
            assert prog.layers[1].gn_update.pieces.sq is sq
        arrays = sq.params.weights + sq.params.biases
        for a in arrays:
            # assigning a its own values: harmless if it were allowed
            with pytest.raises(ValueError, match="read-only"):
                a[...] = a
        fresh = real("sq", constructions._SQ_LO, constructions._SQ_HI,
                     constructions._SQ_TARGET)
        assert sq.params.spec == fresh.params.spec
        for a, b in zip(arrays, fresh.params.weights + fresh.params.biases):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert (sq.name, sq.lo, sq.hi, sq.target) \
            == (fresh.name, fresh.lo, fresh.hi, fresh.target)
        assert np.float64(sq.sup_error).tobytes() \
            == np.float64(fresh.sup_error).tobytes()

    # the benchmark warm-up's budget: a smaller probe and the smallest
    # fitting budget in use
    WARM_UP = dict(probe_batches=2, piece_epochs=200, piece_restarts=1)

    # the fitting budgets once in use: the defaults, the benchmark warm-up's,
    # and a starved one that made the trained recip piece miss its target
    BUDGETS = (("default", {}),
               ("default", dict(piece_epochs=200, piece_restarts=1)),
               ("warm", WARM_UP),
               ("warm", dict(WARM_UP, piece_epochs=6000, piece_restarts=3)),
               ("default", dict(piece_epochs=40, piece_restarts=1)))

    @staticmethod
    def compile_cases():
        # seeds 0-19 over both feature kinds
        for seed in range(20):
            w = attention.random_weights(2, numkit.make_rng(seed),
                                         feature_bound=0.4)
            for fm in (attention.exp_feature_map(4, 2, seed=11),
                       attention.elu_feature_map()):
                yield seed, w, fm

    def test_no_fit_budget_warns_or_changes_the_program(self):
        # every piece is built, so no budget, starved or not, makes a compile
        # warn, and the retired fit budget changes no byte of the program
        for seed, w, fm in self.compile_cases():
            docs = {}
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for name, budget in self.BUDGETS:
                    prog = compile_kernel_vn(w, KernelSimConfig(
                        feature_map=fm, mode="mlp", feature_bound=0.4,
                        seed=seed, **budget))
                    doc = json.dumps(program_to_json(prog), sort_keys=True)
                    assert docs.setdefault(name, doc) == doc, \
                        (seed, fm.kind, name, budget)

    def test_every_piece_meets_its_target(self):
        # recip is built like sq and the kernel nonlinearity, so no piece,
        # recip included, misses its target
        for seed, w, fm in self.compile_cases():
            for name, budget in self.BUDGETS[::2]:
                prog = compile_kernel_vn(w, KernelSimConfig(
                    feature_map=fm, mode="mlp", feature_bound=0.4,
                    seed=seed, **budget))
                fits = prog.metadata["piece_fits"]
                assert "recip" in fits, (seed, fm.kind, sorted(fits))
                for piece, fit in fits.items():
                    assert fit["sup_error"] <= fit["target"], \
                        (seed, fm.kind, name, piece)

    @pytest.mark.parametrize("feature_bound,piece", [(16.0, "exp"),
                                                      (6.0, "recip")])
    def test_oversized_window_is_refused(self, feature_bound, piece):
        # the d=2, m=4 exp-features layer of mlp_kernel_setup: at
        # feature_bound 16 the exp window is about [-114, 23.9] (H ~ 2.4e8),
        # at 6 the recip window about [8.3e-4, 6.43] (H ~ 4.3e6)
        w = attention.random_weights(2, numkit.make_rng(3), feature_bound=0.4)
        cfg = KernelSimConfig(feature_map=attention.exp_feature_map(4, 2, 11),
                              mode="mlp", feature_bound=feature_bound, seed=5)
        with pytest.raises(ValueError, match=(
                rf"piece '{piece}' on \[\S+, \S+\] needs H = \S+ knot "
                r"intervals to meet its target 0\.001, more than 16384")):
            compile_kernel_vn(w, cfg)

    def test_zero_value_weights_are_refused(self):
        # a zero w_v probes v_abs = 0, which every product of a value
        # divides by, so the program could only return NaN
        w = attention.random_weights(2, numkit.make_rng(3), feature_bound=0.4)
        w = attention.AttnWeights(w.w_q, w.w_k, np.zeros((2, 2)), 0.4)
        cfg = KernelSimConfig(feature_map=attention.exp_feature_map(4, 2, 11),
                              mode="mlp", feature_bound=0.4, seed=5)
        with pytest.raises(ValueError, match=r"KernelPieces bounds\['v_abs'\] "
                                             r"must be finite and positive"):
            compile_kernel_vn(w, cfg)

    # sha256 of numkit.dump_json of the exp-features compile's recip piece
    # parameters and of its probed bounds: the built recip piece, on the
    # window of the probe, which building recip left unchanged
    RECIP_PARAMS_SHA256 = (
        "e9323fabc97caf4a1f7284fdc9b26c8f0e7fcd8c9dceae4356dcc313a3b3da32")
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
    # of mlp_kernel_setup as saved (indented) while every piece was a
    # trained ELU network, with the sha256 of the document and of its
    # output bytes on the fixture's inputs at that time
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
        # it re-saves as layer-program/v3: each layer one run, and the
        # layout implied by the layers instead of recorded
        content = json.loads(path.read_bytes())
        del content["gn_init"], content["gn_out"]
        content["format"] = "layer-program/v3"
        content["layers"] = [dict(l, repeat=1) for l in content["layers"]]
        assert json.loads(resaved.read_bytes()) == content
        assert resaved.read_bytes() == (json.dumps(
            content, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _max_f2(name, lo, hi):
    """max |f''| over [lo, hi] for the built functions."""
    if name == "sq":
        return 2.0
    if name == "exp":
        return float(np.exp(hi))
    if name == "recip":
        return 2.0 / lo**3
    # elu(t) + 1 has f'' = exp(t) for t < 0 and 0 for t > 0
    return float(np.exp(min(hi, 0.0))) if lo < 0 else 0.0


_FUNCTIONS = {"sq": lambda t: t * t, "exp": np.exp,
              "elu_plus_one": lambda t: np.where(t < 0, np.expm1(t), t) + 1.0,
              "recip": lambda t: 1.0 / t}


class TestBuiltPieces:
    """Every mlp-mode piece is a piecewise-linear ReLU interpolant."""

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

    # the recip windows of mlp_kernel_setup (exp and elu features), a
    # window reaching close to 0, and a narrow one
    @pytest.mark.parametrize("lo,hi", [(4.92, 13.08), (10.27, 26.21),
                                       (0.2, 4.0), (1.0, 1.001)])
    @pytest.mark.parametrize("target", [1e-3, 1e-4])
    def test_recip_windows(self, lo, hi, target):
        self.check_piece("recip", lo, hi, target)

    @pytest.mark.parametrize("name,lo,hi", [
        ("exp", -114.345, 23.9047),  # feature_bound 16: H ~ 2.4e8
        ("recip", 8.31642e-4, 6.43412),  # feature_bound 6: H ~ 4.3e6
        ("recip", 0.0, 1.0),  # the pole: no finite bound
        ("recip", 1e-110, 1.0),  # lo^3 underflows to 0
    ])
    def test_window_over_the_knot_cap_is_refused_before_allocating(
            self, name, lo, hi):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                    rf"piece '{name}' on \[\S+, \S+\] needs H = \S+ "
                    r"knot intervals to meet its target 0\.001, more than "
                    r"16384")):
                constructions._build_piece(name, lo, hi, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_zero_selector_step_is_one_object(self, n):
        w = attention.random_weights(3, numkit.make_rng(0))
        prog = compile_deep_vn(w, DeepSimConfig(n=n, selection="oracle"))
        # every round stages zeros through one step and selects through one
        # pool, and rounds 2..n are one layer object; a reloaded program
        # shares them as well
        for p in (prog, program_from_json(program_to_json(prog))):
            rounds = p.layers[:n]
            step, pool = rounds[0].vn_update, rounds[0].vn_pool
            assert all(l.vn_update is step and l.vn_pool is pool
                       for l in rounds)
            assert isinstance(step, SelectorAdvance)
            assert isinstance(pool, OracleSelectPool)
            assert all(l is rounds[-1] for l in rounds[1:])

    def test_trace_matches_reference_exactly(self):
        # not approximately: the engine must reproduce the hand-rolled
        # per-step reference trace bit for bit
        rng = numkit.make_rng(42)
        n, d = 5, 3
        X = rng.normal(size=(n, d)) * 0.6
        w = attention.random_weights(d, rng)
        prog = compile_deep_vn(w, DeepSimConfig(n=n, selection="oracle"))
        states, _ = run_stepwise(prog.initial_state(X), prog)
        selectors = np.zeros((n, d))
        for t in (0, 1, 2, n, n + 1, n + 2):
            gn_want, vn_want = deep_trace_oracle(
                X, selectors, w.w_q, w.w_k, w.w_v, t
            )
            assert np.array_equal(gn_matrix(states[t].gn), gn_want), t
            assert np.array_equal(states[t].vn, vn_want), t

    @given(st.integers(1, 24), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @example(1, 1, 0)
    @example(1, 6, 1)
    @example(24, 6, 2)
    @settings(max_examples=30, deadline=None)
    def test_every_state_matches_reference_trace(self, n, d, seed):
        rng = numkit.make_rng(seed)
        X = rng.normal(size=(n, d)) * 0.6
        w = attention.random_weights(d, rng)
        prog = compile_deep_vn(w, DeepSimConfig(n=n, selection="oracle"))
        states, _ = run_stepwise(prog.initial_state(X), prog)
        selectors = np.zeros((n, d))
        for t in range(n + 3):
            gn_want, vn_want = deep_trace_oracle(
                X, selectors, w.w_q, w.w_k, w.w_v, t
            )
            assert list(states[t].gn) == ["x", "acc", "mass", "q"], t
            assert np.array_equal(gn_matrix(states[t].gn), gn_want), t
            assert np.array_equal(states[t].vn, vn_want), t

    @staticmethod
    def _benchmark_shape_program():
        # the deep-oracle benchmark's shape: n=256, d=8, rows 0.3 N(0, 1)
        rng = numkit.make_rng(32)
        n, d = 256, 8
        X = rng.normal(size=(n, d)) * 0.3
        w = attention.random_weights(d, rng)
        return X, compile_deep_vn(w, DeepSimConfig(n=n, selection="oracle"))

    def test_accumulation_shares_x_and_q(self):
        X, prog = self._benchmark_shape_program()
        n = X.shape[0]
        states, _ = run_stepwise(prog.initial_state(X), prog)
        shared = np.shares_memory
        for k in range(1, n + 2):
            before, after = states[k - 1].gn, states[k].gn
            # layer 1 stages q; layers 2..n+1 accumulate into new acc and
            # mass blocks; layer n+2 writes the output into a new x
            assert shared(after["x"], before["x"]), k
            assert shared(after["q"], before["q"]) == (k >= 2), k
            assert shared(after["acc"], before["acc"]) == (k == 1), k
        assert not shared(states[n + 2].gn["x"], states[n + 1].gn["x"])

    def test_accumulation_layer_allocates_less_than_a_state_copy(self):
        X, prog = self._benchmark_shape_program()
        n, d = X.shape
        s1, _ = run_layer(prog.initial_state(X), prog.layers[0], 1)
        run_layer(s1, prog.layers[1], 2)  # first call: any one-time set-up
        tracemalloc.start()
        try:
            run_layer(s1, prog.layers[1], 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # copying the whole [x | acc | mass | q] state, as every layer once
        # did, takes n (3d+1) float64s: 256 * 25 * 8 = 51,200 bytes by
        # itself (such a layer peaked near 107,000 bytes).  New acc and mass
        # blocks take n (d+1) * 8 = 18,432 bytes; with the n-long score and
        # selection-weight vectors (2,048 bytes each) the peak is about
        # 24,000 bytes.
        assert peak < n * (3 * d + 1) * 8

    def test_state_layout_through_time(self):
        rng = numkit.make_rng(4)
        n, d = 4, 2
        X = rng.normal(size=(n, d)) * 0.5
        w = attention.random_weights(d, rng)
        prog = compile_deep_vn(w, DeepSimConfig(n=n, selection="oracle"))
        states, _ = run_stepwise(prog.initial_state(X), prog)
        for t in range(n + 2):
            # graph nodes carry the raw feature up front until the final
            # normalization overwrites it with the output
            assert np.array_equal(states[t].gn["x"], X), t
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

    @pytest.mark.parametrize("given", ["certificate", "amplification",
                                       "both"])
    def test_oracle_selection_refuses_certificate_and_amplification(
            self, given):
        _, cert = make_certified_instance(4, 2, numkit.make_rng(1))
        kwargs = {"certificate": cert, "amplification": 5.0}
        if given != "both":
            kwargs = {given: kwargs[given]}
        with pytest.raises(ValueError, match="oracle selection takes no "
                                             "certificate and no "
                                             "amplification"):
            DeepSimConfig(n=4, selection="oracle", **kwargs)

    @pytest.mark.parametrize("bad", [0.0, -5.0, float("nan"), float("inf")])
    def test_amplification_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="amplification"):
            DeepSimConfig(n=6, selection="softmax", amplification=bad)
        with pytest.raises(ValueError, match="amplification"):
            SeparabilityCertificate(np.ones((2, 1)), np.ones(2),
                                    amplification=bad)

    def test_nan_input_row_raises(self):
        # execute refuses the input; a state holding it anyway enters every
        # node's accumulated mass, and the ratio refuses that
        rng = numkit.make_rng(6)
        w = attention.random_weights(3, rng)
        prog = compile_deep_vn(w, DeepSimConfig(n=6, selection="oracle"))
        X = rng.normal(size=(6, 3)) * 0.5
        X[2, 1] = np.nan
        with pytest.raises(ValueError, match=r"input X contains non-finite "
                                             r"entries, the first nan at "
                                             r"\(2, 1\)"):
            prog.execute(attention_host_graph(6), X)
        s0 = prog.initial_state(np.nan_to_num(X))
        s0.gn["x"] = X
        with pytest.raises(ValueError, match="mass"):
            run_program(s0, prog)

    def test_trace_matches_reference_at_benchmark_shape(self):
        # the deep-oracle benchmark's shape: 256 rows of width 8, checked
        # bitwise after the last accumulation layer (time n+1)
        rng = numkit.make_rng(256)
        n, d = 256, 8
        X = rng.normal(size=(n, d)) * 0.6
        w = attention.random_weights(d, rng)
        prog = compile_deep_vn(w, DeepSimConfig(n=n, selection="oracle"))
        seen = {}

        def keep(ks, state, vn_rows, weights):
            if ks[-1] == n + 1:
                seen["state"] = state

        run_program(prog.initial_state(X), prog, observe=keep)
        gn_want, vn_want = deep_trace_oracle(
            X, np.zeros((n, d)), w.w_q, w.w_k, w.w_v, n + 1
        )
        assert np.array_equal(gn_matrix(seen["state"].gn), gn_want)
        assert np.array_equal(seen["state"].vn, vn_want)

    # sha256 of the output bytes of one oracle program at the deep-oracle
    # benchmark's shape, fresh and after a save/load round trip, recorded
    # while graph-node states were still one (n, 3d+1) matrix
    WIDE_ORACLE_OUT_SHA256 = {
        "compiled": "236e60266e4981886ebf3436db34cf8d7c3ce9daefdf76099123651cc64f0979",
        "reloaded": "236e60266e4981886ebf3436db34cf8d7c3ce9daefdf76099123651cc64f0979",
    }

    def test_wide_oracle_output_is_pinned(self, tmp_path):
        rng = numkit.make_rng(31)
        n, d = 256, 8
        X = rng.normal(size=(n, d)) * 0.3
        w = attention.random_weights(d, rng)
        prog = compile_deep_vn(w, DeepSimConfig(n=n, selection="oracle"))
        path = tmp_path / "wide.json"
        save_program(prog, path)
        g = attention_host_graph(n)
        for name, p in (("compiled", prog), ("reloaded", load_program(path))):
            out = p.execute(g, X)
            assert hashlib.sha256(out.tobytes()).hexdigest() \
                == self.WIDE_ORACLE_OUT_SHA256[name], name

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
        # a document that lost the node count in its metadata takes it
        # from its layers: it refuses 8 rows and runs 6 as the program does
        blob = program_to_json(prog)
        del blob["metadata"]["n"]
        lost = program_from_json(blob)
        with pytest.raises(ValueError, match=match):
            lost.execute(attention_host_graph(8), X)
        g = attention_host_graph(6)
        assert np.array_equal(lost.execute(g, X[:6]), prog.execute(g, X[:6]))

    def test_deep_document_with_empty_metadata_runs_its_own_node_count(self):
        # with "metadata": {} and the provenance rewritten too, it once ran
        # on 6 rows with error 0.148 against self_attention
        w = attention.random_weights(3, numkit.make_rng(0))
        prog = compile_deep_vn(w, DeepSimConfig(n=4, selection="oracle"))
        blob = program_to_json(prog)
        blob["metadata"], blob["provenance"] = {}, "hand-built"
        bare = program_from_json(blob)
        X = 0.6 * numkit.make_rng(1).normal(size=(6, 3))
        with pytest.raises(ValueError, match="compiled for n=4 graph nodes, "
                                             "input has 6 rows"):
            bare.execute(attention_host_graph(6), X)
        g = attention_host_graph(4)
        assert np.array_equal(bare.execute(g, X[:4]), prog.execute(g, X[:4]))

    def test_time2_check_reads_the_staged_query(self):
        # accumulations that recompute q from x keep every acc and mass
        # bitwise, so only the query check sees that layer 1 staged zeros
        class Recompute(ScoreAccumulate):
            kind = ""  # not registered

            def fold(self, gn, ys):
                q = np.einsum("ia,ac->ic", gn["x"], w.w_q)
                return super().fold({**gn, "q": q}, ys) | {"q": gn["q"]}

        rng = numkit.make_rng(17)
        n, d = 5, 3
        w = attention.random_weights(d, rng)
        X = rng.normal(size=(n, d)) * 0.5
        prog = compile_deep_vn(w, DeepSimConfig(n=n, selection="oracle"))
        got, exact = _run_checking_time2(X, w, prog)
        assert exact
        before = prog.execute(attention_host_graph(n), X)
        assert np.array_equal(got, before)
        recompute = Recompute(w.w_k, w.w_v, width=d)
        first = prog.layers[0]
        prog = replace(prog, layers=[
            MpnnVnLayer(first.vn_pool, first.vn_update,
                        StageQuery(np.zeros((d, d)), width=d))] + [
            MpnnVnLayer(l.vn_pool, l.vn_update,
                        recompute if isinstance(l.gn_update, ScoreAccumulate)
                        else l.gn_update)
            for l in prog.layers[1:]])
        assert np.array_equal(prog.execute(attention_host_graph(n), X),
                              before)
        assert not _run_checking_time2(X, w, prog)[1]

    @staticmethod
    def _time2_verdicts(X, w, prog) -> tuple[bool, bool]:
        """(the CLI's whole-block time-2 check, the per-row oracle's
        verdict on the same state after layer 2)."""
        s1, _ = run_layer(prog.initial_state(X), prog.layers[0], 1)
        gn = run_layer(s1, prog.layers[1], 2)[0].gn
        return (_run_checking_time2(X, w, prog)[1],
                time2_rows_oracle(X, w.w_q, w.w_k, w.w_v, gn))

    @pytest.mark.parametrize("n", [2, 3, 6, 17, 40, 64, 256])
    @pytest.mark.parametrize("d", [1, 3, 5, 8, 17, 33])
    def test_time2_check_agrees_with_the_per_row_check(self, n, d):
        rng = numkit.make_rng(100 * n + d)
        w = attention.random_weights(d, rng)
        X = rng.normal(size=(n, d)) * 0.6
        prog = compile_deep_vn(w, DeepSimConfig(n=n, selection="oracle"))
        assert self._time2_verdicts(X, w, prog) == (True, True)

    @pytest.mark.parametrize("block", ["acc", "mass", "x"])
    def test_time2_check_reads_every_block(self, block):
        # layer 2 moves one block one ulp up and leaves the rest exact:
        # each clause of the check alone must see it (the query's clause
        # has test_time2_check_reads_the_staged_query)
        class Nudge:
            blocks = ("x",)

            def __init__(self, inner):
                self.inner = inner

            def __call__(self, gn, vn):
                out = self.inner(gn, vn)
                return {**out, block: np.nextafter(out[block], np.inf)}

        rng = numkit.make_rng(19)
        n, d = 6, 3
        w = attention.random_weights(d, rng)
        X = rng.normal(size=(n, d)) * 0.5
        prog = compile_deep_vn(w, DeepSimConfig(n=n, selection="oracle"))
        second = prog.layers[1]
        prog = replace(prog, layers=[
            prog.layers[0], MpnnVnLayer(second.vn_pool, second.vn_update,
                                        Nudge(second.gn_update)),
            *prog.layers[2:]])
        assert self._time2_verdicts(X, w, prog) == (False, False)


# ---------------------------------------------------------------------------
# the layers are a program's one contract
# ---------------------------------------------------------------------------


def _compiled_case(name: str, seed: int):
    """(program, X, weights, certificate or None) for one compiler, on five
    rows of width 3."""
    rng = numkit.make_rng(seed)
    n, d = 5, 3
    w = attention.random_weights(d, rng)
    X = 0.5 * rng.normal(size=(n, d))
    if name == "kernel_exact":
        fm = attention.exp_feature_map(4, d, seed=seed)
        return compile_kernel_vn(w, KernelSimConfig(feature_map=fm)), X, w, None
    if name == "deepsets":
        net = random_network((d, 4, 2), rng)
        return deepsets.compile_network(net, n), X, w, None
    cert = None
    if name == "deep_softmax":
        X, cert = make_certified_instance(n, d, rng)
    elif name == "deep_gatv2":
        cert = l1_certificate(X)
    prog = compile_deep_vn(w, DeepSimConfig(
        n=n, selection=name[len("deep_"):], certificate=cert))
    return prog, X, w, cert


class TestLayersAreTheContract:
    @given(name=st.sampled_from(["deep_oracle", "deep_softmax", "deep_gatv2",
                                 "kernel_exact", "deepsets"]),
           seed=st.integers(0, 2**16), provenance=st.text(max_size=24))
    @settings(max_examples=30, deadline=None)
    def test_metadata_and_provenance_are_echoes(self, name, seed,
                                                provenance):
        # once, a deep document with both rewritten ran on any row count,
        # and its selection report lost every entry
        prog, X, w, cert = _compiled_case(name, seed)
        blob = program_to_json(prog)
        blob["metadata"], blob["provenance"] = {}, provenance
        bare = program_from_json(blob)
        g = attention_host_graph(5)
        assert np.array_equal(bare.execute(g, X), prog.execute(g, X))
        assert (bare.layout, bare.n) == (prog.layout, prog.n)
        if name.startswith("deep_"):
            with pytest.raises(ValueError, match=(
                    "compiled for n=5 graph nodes, input has 6 rows")):
                bare.execute(attention_host_graph(6), np.vstack([X, X[:1]]))
        if cert is not None:
            swapped = X[[1, 0, 2, 3, 4]]
            intact, other = (run_and_report(swapped, p, w, cert=cert)
                             for p in (prog, bare))
            assert len(other.selection) == 5
            assert other.selection == intact.selection
            assert other.bounds_ok is intact.bounds_ok


# ---------------------------------------------------------------------------
# linear-depth compiler: one program shape for every selection mode
# ---------------------------------------------------------------------------


def _sweep_program(selection: str, seed: int):
    """(program, X) for one case of the selection sweep: unit-sphere rows,
    redrawn until no two are close, weights drawn directly (no LAPACK) and
    certificates built without an LP, with the amplification given."""
    rng = numkit.make_rng(seed)
    n, d = int(rng.integers(2, 12)), int(rng.integers(2, 5))
    w = attention.AttnWeights(*(0.3 * rng.normal(size=(d, d))
                                for _ in range(3)))
    while True:
        X = rng.normal(size=(n, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        dots = X @ X.T
        np.fill_diagonal(dots, -np.inf)
        if dots.max() < 0.95:
            break
    if selection == "oracle":
        return compile_deep_vn(w, DeepSimConfig(n=n)), X
    cert = SeparabilityCertificate(directions=X, margins=1.0 - dots.max(axis=1),
                                   amplification=30.0) \
        if selection == "softmax" else l1_certificate(X)
    return compile_deep_vn(w, DeepSimConfig(
        n=n, selection=selection, certificate=cert, amplification=30.0)), X


class TestOneShapeForEverySelection:
    @pytest.mark.parametrize("selection", ["oracle", "softmax", "gatv2"])
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_every_round_is_one_layer_object(self, selection, seed):
        # the modes differ only in the one pool every round shares; one step
        # stages zeros, vn_init is zero, and a reload shares them as well
        prog, X = _sweep_program(selection, seed)
        n = X.shape[0]
        assert len(prog.layers) == n + 2
        for p in (prog, program_from_json(program_to_json(prog))):
            rounds = p.layers[:n]
            step, pool = rounds[0].vn_update, rounds[0].vn_pool
            assert all(l.vn_update is step and l.vn_pool is pool
                       for l in rounds)
            assert all(l is rounds[-1] for l in rounds[1:])
            assert isinstance(step, SelectorAdvance)
            assert not p.vn_init.any()
            if selection == "oracle":
                assert isinstance(pool, OracleSelectPool)
            else:
                assert isinstance(pool, SoftmaxSelectPool)
                assert (pool.score is None) == (selection == "softmax")
                assert np.array_equal(pool.selectors, X)

    # sha256 over a seed sweep of fresh compiles, each run as compiled and
    # after a save/load round trip: the output bytes, then every selection
    # weight vector in layer order.  Recorded while softmax and gatv2
    # rounds each staged their own next selector in the virtual node.
    SELECTION_SWEEP_SHA256 = {
        "oracle":
            "90a8c80082e17bd363fc6a8d359f4a3465666f2f06c5c1f7909dfedb11061852",
        "softmax":
            "1591fd143817dc59b659371cc10926df8d7de5b10435d6d45d4a2fdb8dd74f4d",
        "gatv2":
            "3452b78d5024570c090c907357089eb4a1b2f3e352ce3686ecc94c31bafdfd65",
    }

    @pytest.mark.parametrize("selection", sorted(SELECTION_SWEEP_SHA256))
    def test_selection_sweep_is_pinned(self, selection):
        digest = hashlib.sha256()
        for seed in range(12):
            prog, X = _sweep_program(selection, seed)
            again = program_from_json(json.loads(json.dumps(
                program_to_json(prog))))
            for p in (prog, again):
                weights = []
                final = run_program(
                    p.initial_state(X), p, observe=lambda ks, s, v, wts:
                    wts is not None and weights.append(wts))
                digest.update(p.extract(final).tobytes())
                # a stack's (C-order) bytes are its rows', in order
                for wt in weights:
                    digest.update(wt.tobytes())
        assert digest.hexdigest() == self.SELECTION_SWEEP_SHA256[selection]


# ---------------------------------------------------------------------------
# linear-depth compiler, amplified-softmax selection
# ---------------------------------------------------------------------------


class TestDeepSoftmax:
    def test_renamed_compiler_key_keeps_the_selection_report(self):
        # the provenance marks the program deep: with the key renamed it
        # once ran with no selection entries and reported bounds_ok=True
        rng = numkit.make_rng(3)
        w = attention.random_weights(3, rng)
        X, cert = make_certified_instance(5, 3, rng)
        prog = compile_deep_vn(w, DeepSimConfig(
            n=5, selection="softmax", certificate=cert))
        blob = copy.deepcopy(program_to_json(prog))
        blob["metadata"]["built_by"] = blob["metadata"].pop("compiler")
        renamed = program_from_json(blob)
        # point 1 in rows 0 and 1, point 0 in none: rounds 1 and 2 split
        # their weight, below its bound (a row permutation keeps every bound)
        doubled = X[[1, 1, 2, 3, 4]]
        intact, other = (run_and_report(doubled, p, w, cert=cert)
                         for p in (prog, renamed))
        assert len(other.selection) == 5
        assert other.selection == intact.selection
        assert other.bounds_ok is intact.bounds_ok is False

    def test_certified_instance_properties(self):
        rng = numkit.make_rng(5)
        X, cert = make_certified_instance(6, 3, rng, min_delta=0.1)
        assert isinstance(cert, SeparabilityCertificate)
        assert cert.delta >= 0.1
        assert cert.n == 6
        np.testing.assert_allclose(np.linalg.norm(X, axis=1), 1.0)

    @staticmethod
    def _draws(n, d, rng):
        """The unit-sphere point sets ``make_certified_instance`` draws."""
        for _ in range(constructions._INSTANCE_DRAWS):
            X = rng.normal(size=(n, d))
            yield X / np.linalg.norm(X, axis=1, keepdims=True)

    @pytest.mark.parametrize("n, d, min_delta", [
        (5, 3, 0.1), (6, 3, 0.1), (8, 2, 0.05), (12, 4, 0.1), (16, 3, 0.05)])
    def test_closest_pair_rejection_keeps_the_accepted_draw(
            self, n, d, min_delta):
        # rejecting draws by their closest pair before any LP accepts the
        # draw that certifying every draw accepts, and leaves the stream
        # where it would be
        for seed in range(8):
            got_rng, want_rng = numkit.make_rng(seed), numkit.make_rng(seed)
            want = next((X, cert) for X in self._draws(n, d, want_rng)
                        for cert in [vdelta_certificate(X)]
                        if isinstance(cert, SeparabilityCertificate)
                        and cert.delta >= min_delta)
            X, cert = make_certified_instance(n, d, got_rng, min_delta)
            assert X.tobytes() == want[0].tobytes()
            assert cert.directions.tobytes() == want[1].directions.tobytes()
            assert cert.margins.tobytes() == want[1].margins.tobytes()
            assert cert.amplification == want[1].amplification
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_close_pairs_run_no_lp(self, monkeypatch):
        # at n = 64 in 3-D most draws hold a pair nearer than 0.1 in L1,
        # which bounds every margin; only the others reach the LPs
        solved = []
        separations = separability._separations

        def counting(X, targets):
            solved.append(X.copy())
            return separations(X, targets)

        monkeypatch.setattr(separability, "_separations", counting)
        with pytest.raises(constructions.NoCertifiedInstance):
            make_certified_instance(64, 3, numkit.make_rng(0))
        draws = list(self._draws(64, 3, numkit.make_rng(0)))
        slack = constructions._PAIR_BOUND_SLACK
        far = [X for X in draws
               if l1_certificate(X).delta * (1.0 + slack) >= 0.1]
        assert 0 < len(solved) == len(far) < len(draws) // 2
        assert all(a.tobytes() == b.tobytes() for a, b in zip(solved, far))

    def test_no_instance_names_the_largest_delta_reached(self):
        n, d, min_delta = 8, 3, 0.9
        slack = constructions._PAIR_BOUND_SLACK
        best = max(cert.delta for X in self._draws(n, d, numkit.make_rng(2))
                   if l1_certificate(X).delta * (1.0 + slack) >= min_delta
                   for cert in [vdelta_certificate(X)]
                   if isinstance(cert, SeparabilityCertificate))
        assert best < min_delta
        with pytest.raises(constructions.NoCertifiedInstance, match=(
                rf"^no \(V, delta >= 0\.9\) instance found in 200 draws: "
                rf"the largest delta reached was {best:.6g}; \d+ draws had a "
                rf"closest pair nearer than 0\.9 in L1 and ran no LP$")):
            make_certified_instance(n, d, numkit.make_rng(2), min_delta)

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

    def test_reversed_rows_are_measured_against_the_rows_selected(self):
        # round k selects the row that now holds point k - 1: row n - k.
        # The output is as close to attention as on the instance in order,
        # and the report once measured every round against row k - 1 and
        # said bounds_ok False
        rng = numkit.make_rng(3)
        n = 6
        X, cert = make_certified_instance(n, 3, rng)
        w = attention.random_weights(3, rng)
        prog = compile_deep_vn(w, DeepSimConfig(
            n=n, selection="softmax", certificate=cert))
        in_order, reversed_ = (run_and_report(Y, prog, w, cert=cert)
                               for Y in (X, X[::-1]))
        assert [e["target"] for e in reversed_.selection] == \
            list(range(n - 1, -1, -1))
        assert reversed_.bounds_ok and in_order.bounds_ok
        assert reversed_.max_abs == in_order.max_abs

    @staticmethod
    def _six_point_case():
        """(X, certificate, weights, program): a certified 6-point instance
        in 3-D and its softmax deep program."""
        rng = numkit.make_rng(3)
        X, cert = make_certified_instance(6, 3, rng)
        w = attention.random_weights(3, rng)
        return X, cert, w, compile_deep_vn(w, DeepSimConfig(
            n=6, selection="softmax", certificate=cert))

    @pytest.mark.parametrize("points", [5, 7])
    def test_refuses_a_certificate_of_another_size(self, points):
        # a 5-point certificate once stopped with numpy's bare IndexError,
        # and a 7-point one was read for the margins of other points
        X, _, w, prog = self._six_point_case()
        _, other = make_certified_instance(points, 3, numkit.make_rng(4))
        with pytest.raises(ValueError, match=f"certificate covers {points} "
                                             "points, program needs 6"):
            run_and_report(X, prog, w, cert=other)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, 0.0, -1.0])
    def test_refuses_a_feature_bound_not_finite_and_positive(self, bound):
        # each once gave bounds_ok False without a reason, and inf wrote
        # Infinity, which is not JSON, into every feature_error_bound
        X, cert, w, prog = self._six_point_case()
        with pytest.raises(ValueError, match="feature_bound must be finite "
                                             "and positive"):
            run_and_report(X, prog, w, cert=cert, feature_bound=bound)

    @given(st.integers(3, 8), st.integers(2, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_row_permutations_keep_every_bound(self, n, d, seed):
        # the program selects by point, not by row: any order of a
        # certified instance's rows keeps each round's bounds, and the
        # output's error is the tolerance of the instance in order
        rng = numkit.make_rng(seed)
        X, cert = make_certified_instance(n, d, rng)
        w = attention.random_weights(d, rng)
        prog = compile_deep_vn(w, DeepSimConfig(
            n=n, selection="softmax", certificate=cert))
        perm = rng.permutation(n)
        rep = run_and_report(X[perm], prog, w, cert=cert)
        assert [e["target"] for e in rep.selection] == \
            np.argsort(perm).tolist()
        assert rep.bounds_ok
        assert rep.max_abs < 1e-2

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
            assert entry["weight"] >= 1.0 - CERT_EPS - 1e-12
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
        assert isinstance(result, CertificateFailure)
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
            assert entry["weight"] >= 1.0 - CERT_EPS - 1e-12
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
            amplification=1.0,
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
        # the rng algorithm is a class constant, echoed after the fields
        assert list(blob) == ["format", *(f.name for f in fields(ErrorReport)),
                              "rng_algorithm"]
        assert blob["rng_algorithm"] == "pcg64"
        assert json.dumps(blob)  # plain JSON, no numpy leftovers

    def test_feature_errors_are_bitwise_the_2_norm(self):
        # each reported feature error is np.linalg.norm of the selected
        # feature's deviation, as an observer of the same run measures it
        rng = numkit.make_rng(8)
        n, d = 7, 3
        X, cert = make_certified_instance(n, d, rng)
        w = attention.random_weights(d, rng)
        for cfg, c in ((DeepSimConfig(n=n), None),
                       (DeepSimConfig(n=n, selection="softmax",
                                      certificate=cert, amplification=6.0),
                        cert)):
            prog = compile_deep_vn(w, cfg)
            norms = []

            def observe(ks, state, vn_rows, weights):
                for k, vn in zip(ks, vn_rows):
                    if k <= n:
                        norms.append(float(np.linalg.norm(vn[:d]
                                                          - X[k - 1])))

            run_program(prog.initial_state(X), prog, observe=observe)
            got = [e["feature_error"]
                   for e in run_and_report(X, prog, w, cert=c).selection]
            assert len(got) == n
            assert np.array(got).tobytes() == np.array(norms).tobytes()
            assert any(v > 0.0 for v in got) == (c is not None)

    # sha256 of json.dumps(report_to_json(report), sort_keys=True) for the
    # deep-oracle benchmark's shape and for a certify-shape softmax case
    # (unit rows), both drawn from np.random.default_rng([77, 0, 0]);
    # recorded while the report measured each selection round through a
    # per-layer observer
    REPORT_SHA256 = {
        "deep-oracle": "5922026e4d0992225ebe25f2eebf9398958594d704fcf935e2b17950936ef7ea",
        "certify-softmax": "9ee637301b040d564b131a93c8cca2eaa8e17c4d1704ddfbf3358ad3ca0e46f6",
    }

    @pytest.mark.parametrize("case", sorted(REPORT_SHA256))
    def test_report_is_pinned(self, case):
        rng = np.random.default_rng([77, 0, 0])
        if case == "deep-oracle":
            X = rng.normal(size=(256, 8)) * 0.3
            w = attention.random_weights(8, rng)
            rep = run_and_report(X, compile_deep_vn(w, DeepSimConfig(n=256)),
                                 w)
        else:
            X = rng.normal(size=(32, 3))
            X /= np.linalg.norm(X, axis=1, keepdims=True)
            w = attention.random_weights(3, rng)
            cert = vdelta_certificate(X)
            prog = compile_deep_vn(w, DeepSimConfig(
                n=32, selection="softmax", certificate=cert))
            rep = run_and_report(X, prog, w, cert=cert, feature_bound=1.0)
            assert all("weight_ok" in e for e in rep.selection)
        blob = json.dumps(report_to_json(rep), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() \
            == self.REPORT_SHA256[case]

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

    def _eager_rows(self, X, prog, want, cert=None):
        """(per_node, selection) built one dict per row, each selection
        round's target and weight the argmax and max of its weight row,
        as reports were built before their tables were columnar."""
        n = X.shape[0]
        steps = {}

        def observe(ks, state, vn_rows, weights):
            for j, k in enumerate(ks):
                steps[k] = vn_rows[j], None if weights is None else weights[j]

        got = prog.extract(run_program(prog.initial_state(X), prog,
                                       observe=observe))
        per_node, selection = self._per_node_by_rows(got, want), []
        if prog.n is None:
            return per_node, selection
        d = prog.layout["x"]
        c1 = float(np.linalg.norm(X, axis=1).max())
        for k in range(1, n + 1):
            vn, weights = steps[k]
            entry = {"layer": k, "target": k - 1 if weights is None
                     else int(weights.argmax())}
            if weights is not None:
                weight = float(weights.max())
                error = float(np.linalg.norm(vn[:d] - X[entry["target"]]))
                bound = n * c1 * (1.0 - weight)
                entry.update(weight=weight, feature_error=error,
                             feature_error_bound=bound,
                             feature_error_ok=error <= bound + 1e-12)
                c = getattr(prog.layers[k - 1].vn_pool, "scale", None)
                if cert is not None and c is not None:
                    entry["weight_bound"] = selection_weight_bound(
                        c, float(cert.margins[k - 1]), n)
                    entry["weight_ok"] = weight >= entry["weight_bound"] \
                        - 1e-12
            selection.append(entry)
        return per_node, selection

    @pytest.mark.parametrize("kind", ["deep_oracle", "deep_softmax",
                                      "deep_gatv2", "kernel_exact", "mixed"])
    def test_columnar_rows_read_as_the_eager_rows(self, kind, monkeypatch):
        # rounds 2..n fold in chunks of 3 rounds
        monkeypatch.setattr(mpnnvn, "_CHUNK_FLOATS", 3 * 5 * 3)
        prog, X, w, cert = _compiled_case(
            "deep_softmax" if kind == "mixed" else kind, 4)
        if kind == "mixed":
            # an oracle first round among softmax rounds: its row has a
            # weight but no weight bound
            layers = list(prog.layers)
            layers[0] = MpnnVnLayer(OracleSelectPool(), layers[0].vn_update,
                                    layers[0].gn_update)
            prog = replace(prog, layers=layers)
        fm = None
        if kind == "kernel_exact":
            fm = prog.layers[0].vn_pool.feature_map
            want = attention.approx_attention(X, w, fm)
        else:
            want = attention.self_attention(X, w)
        rep = run_and_report(X, prog, w, fm=fm, cert=cert,
                             reference="kernel" if fm else "full")
        per_node, selection = self._eager_rows(X, prog, want, cert)
        for rows, eager in ((rep.per_node, per_node),
                            (rep.selection, selection)):
            assert isinstance(rows, constructions.ReportRows)
            assert len(rows) == len(eager)
            assert rows == eager and eager == rows
            assert json.dumps(list(rows)) == json.dumps(eager)
            every = range(-len(rows), len(rows))
            assert json.dumps([rows[i] for i in every]) \
                == json.dumps(eager + eager)
            assert rows[1:4] == eager[1:4] and rows[::-2] == eager[::-2]
            with pytest.raises(IndexError):
                rows[len(rows)]
        if kind == "mixed":
            assert "weight_bound" not in rep.selection[0]
            assert all("weight_ok" in e for e in rep.selection[1:])
        assert (rep.selection == []) is (kind == "kernel_exact")
        blob = report_to_json(rep)
        assert blob["per_node"] == per_node and blob["selection"] == selection

    def test_rows_are_new_dicts_and_len_builds_none(self, monkeypatch):
        prog, X, w, _ = _compiled_case("deep_oracle", 2)
        rep = run_and_report(X, prog, w)
        blob = json.dumps(report_to_json(rep))
        rep.per_node[0]["abs"] = -1.0
        next(iter(rep.selection))["target"] = 99
        report_to_json(rep)["selection"][0]["layer"] = 7
        assert json.dumps(report_to_json(rep)) == blob

        def no_rows(*args):
            raise AssertionError("a row was built")

        for name in ("__iter__", "__getitem__"):
            monkeypatch.setattr(constructions.ReportRows, name, no_rows)
        assert len(rep.per_node) == len(rep.selection) == 5
        assert rep.bounds_ok

    def test_bounds_ok_from_arrays_is_the_row_predicate(self):
        # a weight_ok of False fails the report only in a row that holds it
        held = np.array([True, False, True])
        ok = np.array([True, True, True])
        for weight_ok, max_abs in (([True, False, True], 0.0),
                                   ([True, True, False], 0.0),
                                   ([True, True, True], 0.0),
                                   ([True, False, True], math.nan)):
            rows = constructions.ReportRows(
                {"layer": np.arange(1, 4), "target": np.arange(3),
                 "feature_error_ok": ok, "weight_ok": np.array(weight_ok)},
                {"weight_ok": held})
            as_dicts = list(rows)
            assert ["weight_ok" in e for e in as_dicts] == held.tolist()
            columnar, plain = (ErrorReport(
                reference="full", max_abs=max_abs, mean_abs=0.0,
                max_rel=0.0, per_node=[], selection=table, config={},
                seed=None) for table in (rows, as_dicts))
            assert columnar.bounds_ok is plain.bounds_ok
            assert plain.bounds_ok is (weight_ok != [True, True, False]
                                       and not math.isnan(max_abs))

    def test_bounds_ok_of_a_failed_weight_bound(self):
        # the certificate's margins are for X; on X shrunk fivefold the
        # same amplification leaves every weight below its bound
        rng = numkit.make_rng(3)
        X, cert = make_certified_instance(6, 3, rng)
        w = attention.random_weights(3, rng)
        prog = compile_deep_vn(w, DeepSimConfig(n=6, selection="softmax",
                                                certificate=cert))
        rep = run_and_report(X / 5.0, prog, w, cert=cert)
        assert not any(e["weight_ok"] for e in rep.selection)
        assert rep.bounds_ok is False
        assert replace(rep, selection=list(rep.selection)).bounds_ok is False
        assert run_and_report(X, prog, w, cert=cert).bounds_ok is True

    def test_oracle_rounds_are_measured_without_their_weights(
            self, monkeypatch):
        # an oracle round's target and weight are row k - 1 and 1.0, what
        # argmax and max of its one-hot weights give, so run_and_report
        # reads no (rounds, n) weight array, while an observer still gets
        # the weights
        class Unread(np.ndarray):
            def argmax(self, *args, **kwargs):
                raise AssertionError("argmax over oracle weights")

            max = argmax

        select = OracleSelectPool.select

        def spy(self, gn, ks, weigh=True):
            pooled, weights = select(self, gn, ks, weigh)
            handed.append(weights is not None)
            return pooled, None if weights is None else weights.view(Unread)

        rng = np.random.default_rng([77, 0, 0])
        X = rng.normal(size=(256, 8)) * 0.3
        w = attention.random_weights(8, rng)
        prog = compile_deep_vn(w, DeepSimConfig(n=256))
        before = json.dumps(report_to_json(run_and_report(X, prog, w)))
        handed = []
        monkeypatch.setattr(OracleSelectPool, "select", spy)
        rep = run_and_report(X, prog, w)
        assert handed and all(handed)
        assert json.dumps(report_to_json(rep)) == before
        assert [(e["target"], e["weight"]) for e in rep.selection] == \
            [(k, 1.0) for k in range(256)]

    def test_max_rel_is_nan_when_any_row_is(self):
        # ROADMAP item 2's case: the unshifted accumulation overflows in
        # three rows, none of them node 0; max_rel once skipped them
        w = attention.random_weights(4, numkit.make_rng(0))
        prog = compile_deep_vn(w, DeepSimConfig(n=16, selection="oracle"))
        X = numkit.make_rng(1).normal(size=(16, 4)) * 30
        with np.errstate(over="ignore", invalid="ignore"):
            rep = run_and_report(X, prog, w)
        nan_rows = [e["node"] for e in rep.per_node if math.isnan(e["rel"])]
        assert len(nan_rows) == 3 and 0 not in nan_rows
        assert math.isnan(rep.max_abs) and math.isnan(rep.max_rel)
        finite = run_and_report(X / 30, prog, w)
        assert finite.max_rel == max(e["rel"] for e in finite.per_node)

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
