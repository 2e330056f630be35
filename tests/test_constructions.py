"""Tests for the attention-to-layer-program compilers and error reports."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import deep_trace_oracle, self_attention_oracle
from traces import run_traced
from vnlab import attention, numkit
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
from vnlab.mpnnvn import program_from_json, program_to_json
from vnlab.separability import (
    SeparabilityCertificate,
    amplification_for,
    selection_weight_bound,
    three_cluster_line,
    train_gatv2_selector,
    vdelta_certificate,
)


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
        states, _ = run_traced(
            attention_host_graph(4), prog.initial_state(X), prog
        )
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
            "c": None, "append_final_linear": False,
        }

    def test_trace_matches_reference_exactly(self):
        # not approximately: the engine must reproduce the hand-rolled
        # per-step reference trace bit for bit
        rng = numkit.make_rng(42)
        n, d = 5, 3
        X = rng.normal(size=(n, d)) * 0.6
        w = attention.random_weights(d, rng)
        prog = compile_deep_vn(w, DeepSimConfig(n=n, selection="oracle"))
        states, _ = run_traced(
            attention_host_graph(n), prog.initial_state(X), prog
        )
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
        states, _ = run_traced(
            attention_host_graph(n), prog.initial_state(X), prog
        )
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

    def test_append_final_linear_variant_is_bitwise_equal(self):
        rng = numkit.make_rng(8)
        n, d = 5, 3
        X = rng.normal(size=(n, d)) * 0.5
        w = attention.random_weights(d, rng)
        sliced = compile_deep_vn(w, DeepSimConfig(n=n, selection="oracle"))
        linear = compile_deep_vn(
            w, DeepSimConfig(n=n, selection="oracle", append_final_linear=True)
        )
        assert len(linear.layers) == n + 3
        assert linear.gn_out is None
        g = attention_host_graph(n)
        assert np.array_equal(linear.execute(g, X), sliced.execute(g, X))

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

    def test_nan_input_row_raises(self):
        # one NaN row enters every node's accumulated mass
        rng = numkit.make_rng(6)
        w = attention.random_weights(3, rng)
        prog = compile_deep_vn(w, DeepSimConfig(n=6, selection="oracle"))
        X = rng.normal(size=(6, 3)) * 0.5
        X[2, 1] = np.nan
        with pytest.raises(ValueError, match="mass"):
            prog.execute(attention_host_graph(6), X)

    def test_selectors_shape_checked(self):
        rng = numkit.make_rng(0)
        w = attention.random_weights(2, rng)
        cfg = DeepSimConfig(n=3, selection="oracle",
                            selectors=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="selectors"):
            compile_deep_vn(w, cfg)


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
            seed=None,
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
# linear-depth compiler, trained-score selection
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gatv2_line_setup():
    """Three separated 1-D points with one trained selector per step."""
    pts = [np.array([[-2.0]]), np.array([[0.0]]), np.array([[2.0]])]
    scores = []
    for target in range(3):
        res = train_gatv2_selector(pts, target=target, gap=1.0, hidden=8,
                                   seed=target)
        assert res.ok
        scores.append(res.score)
    X = np.vstack(pts)
    return X, tuple(scores)


class TestDeepGatv2:
    def test_trained_selection_tracks_full_attention(self, gatv2_line_setup):
        X, scores = gatv2_line_setup
        n = X.shape[0]
        rng = numkit.make_rng(2)
        w = attention.random_weights(1, rng)
        # scale ln(99 (n-1)) / gap makes each trained gap worth weight 0.99
        scale = float(np.log(99.0 * (n - 1)))
        prog = compile_deep_vn(w, DeepSimConfig(
            n=n, selection="gatv2", gatv2_scores=scores, gatv2_scale=scale,
        ))
        rep = run_and_report(X, prog, w, reference="full", feature_bound=2.0)
        for entry in rep.selection:
            assert entry["weight"] >= 0.99
            assert entry["feature_error_ok"]
        assert rep.max_abs < 0.5  # coarse: selection weight 0.99, spread 4

    def test_higher_scale_gives_smaller_error(self, gatv2_line_setup):
        X, scores = gatv2_line_setup
        n = X.shape[0]
        rng = numkit.make_rng(2)
        w = attention.random_weights(1, rng)
        errs = []
        for scale in (np.log(99.0 * 2), 4 * np.log(99.0 * 2)):
            prog = compile_deep_vn(w, DeepSimConfig(
                n=n, selection="gatv2", gatv2_scores=scores,
                gatv2_scale=float(scale),
            ))
            rep = run_and_report(X, prog, w, reference="full")
            errs.append(rep.max_abs)
        assert errs[1] < errs[0]

    def test_needs_one_score_per_step(self, gatv2_line_setup):
        _, scores = gatv2_line_setup
        rng = numkit.make_rng(0)
        w = attention.random_weights(1, rng)
        with pytest.raises(ValueError, match="one trained score"):
            compile_deep_vn(w, DeepSimConfig(
                n=5, selection="gatv2", gatv2_scores=scores,
            ))


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
