"""Command-line front end: verification runs, sweeps, and dataset arithmetic.

Every subcommand reads an optional flat key=value config file, applies
command-line overrides on top, runs deterministically given its seeds, and
can write its full report as JSON (nested) and/or CSV (flat).  The effective
config is echoed into every report.

Each subcommand is declared once, as an entry of ``COMMANDS``: its runner,
help line, config keys and CSV columns.  A runner takes ``(cfg, args)`` and
returns ``(passed, results, fields, lines)``; ``main`` alone builds the
report envelope, the CSV rows and the exit code from that tuple.

Exit codes (set in ``main``): 0 everything verified, 1 usage or input error,
or a report that cannot be written, 2 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import attention, numkit
from .constructions import (
    DeepSimConfig,
    KernelSimConfig,
    NoCertifiedInstance,
    attention_host_graph,
    compile_deep_vn,
    compile_kernel_vn,
    run_and_report,
    sweep_deep_amplification,
)
from .deepsets import (
    EquivariantLinear,
    compile_linear,
    eval_linear,
    random_linear,
)
from .graphs import (
    BENCHMARK_SPLITS,
    BENCHMARK_WINDOWS,
    window_count,
)
from .mpnnvn import run_program
from .separability import (
    amplification_for,
    l1_certificate,
    point_separations,
    three_cluster_line,
)

REPORT_DIR_ENV = "VNLAB_REPORT_DIR"

# the nine window-count cells verified by dataset-arith, at 11 regions:
# (history, predict) -> (train, validation, test)
EXPECTED_WINDOW_COUNTS = {
    (42, 28): (147_884, 3_245, 7_271),
    (42, 14): (148_038, 3_399, 7_425),
    (42, 7): (148_115, 3_476, 7_502),
}


class CliInputError(Exception):
    """Bad usage or bad input data: exit code 1."""


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Key:
    """One documented config key: its parser, default, and help line."""

    parse: callable
    default: object
    help: str


@dataclass(frozen=True)
class Command:
    """One subcommand: its runner, help line, config keys and CSV columns."""

    run: callable
    help: str
    keys: dict
    columns: tuple


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _at_least(low: int):
    """Integer parser for a count; ``low`` is the smallest its command runs."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value

    return parse


def _positive(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"must be finite and positive, got {text!r}")
    return value


def _fraction(text: str) -> float:
    value = _positive(text)
    if value >= 1.0:
        raise ValueError(f"must lie below 1, got {text!r}")
    return value


def _list_of(item):
    """Comma-separated list parser; a list that checks nothing is refused."""

    def parse(text: str) -> tuple:
        values = tuple(item(tok) for tok in text.split(",") if tok.strip())
        if not values:
            raise ValueError("list must not be empty")
        return values

    return parse


def read_config_file(path: str) -> dict:
    """Parse a flat key=value file (#-comments and blank lines allowed)."""
    raw = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliInputError(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise CliInputError(
                f"{path}:{lineno}: expected key=value, got {text!r}"
            )
        key, _, value = text.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def build_config(command: str, config_path: str | None,
                 overrides: list) -> dict:
    """Defaults, then config-file values, then command-line overrides."""
    table = COMMANDS[command].keys
    cfg = {name: key.default for name, key in table.items()}
    sources = []
    if config_path is not None:
        sources.append(read_config_file(config_path))
    raw_overrides = {}
    for item in overrides:
        if "=" not in item:
            raise CliInputError(f"override must be key=value, got {item!r}")
        key, _, value = item.partition("=")
        raw_overrides[key.strip()] = value.strip()
    sources.append(raw_overrides)
    for source in sources:
        for name, text in source.items():
            if name not in table:
                known = ", ".join(sorted(table))
                raise CliInputError(
                    f"unknown config key {name!r} for {command} "
                    f"(known: {known})"
                )
            try:
                cfg[name] = table[name].parse(text)
            except ValueError as exc:
                raise CliInputError(f"bad value for {name}: {exc}")
    return cfg


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------


def _unwritable(kind: str, path: str, exc: OSError) -> CliInputError:
    return CliInputError(f"cannot write {kind} report {exc.filename or path}: "
                         f"{exc.strerror or exc}")


def _report_path(kind: str, path: str) -> str:
    """Resolve a report path (under ``$VNLAB_REPORT_DIR`` if relative).

    Checked before the run, so no run is computed only to be thrown away.
    """
    base = os.environ.get(REPORT_DIR_ENV)
    if base and not os.path.isabs(path):
        try:
            os.makedirs(base, exist_ok=True)
        except OSError as exc:
            raise _unwritable(kind, path, exc) from None
        path = os.path.join(base, path)
    # the messages are the ones the failed write would give
    if os.path.isdir(path):
        raise CliInputError(f"cannot write {kind} report {path}: "
                            "Is a directory")
    if not os.path.isdir(os.path.dirname(path) or os.curdir):
        raise CliInputError(f"cannot write {kind} report {path}: "
                            "No such file or directory")
    return path


def write_json_report(report: dict, path: str) -> None:
    try:
        numkit.dump_json(report, path)
    except OSError as exc:
        raise _unwritable("json", path, exc) from None


def write_csv_report(header, rows, path: str) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise _unwritable("csv", path, exc) from None


def _fmt(value) -> str:
    """CSV cell text: repr for floats (bit-stable), str otherwise."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


# ---------------------------------------------------------------------------
# verify-deepsets
# ---------------------------------------------------------------------------


def cmd_verify_deepsets(cfg: dict, args):
    rows = []
    worst = 0.0
    for case in range(cfg["seeds"]):
        rng = numkit.make_rng(case)
        n = int(rng.integers(2, cfg["max_n"] + 1))
        d_in = int(rng.integers(1, cfg["max_d"] + 1))
        d_out = int(rng.integers(1, cfg["max_d"] + 1))
        layer = random_linear(d_in, d_out, rng)
        X = rng.normal(size=(n, d_in))
        want = eval_linear(X, layer)
        if cfg["inject_fault"]:
            # negative control: the reference moves, the program does not
            layer_ref = EquivariantLinear(layer.A, layer.B + 1e-6, layer.c)
            want = eval_linear(X, layer_ref)
        prog = compile_linear(layer, n)
        got = prog.execute(attention_host_graph(n), X)
        err = numkit.max_abs_diff(got, want)
        ok = err <= cfg["tol"]
        worst = max(worst, err)
        rows.append({"case": case, "n": n, "d_in": d_in, "d_out": d_out,
                     "max_err": err, "ok": ok})
    passed = all(r["ok"] for r in rows)
    failing = [r["case"] for r in rows if not r["ok"]]
    lines = [
        f"{'PASS' if r['ok'] else 'FAIL'} case {r['case']}: "
        f"n={r['n']} d_in={r['d_in']} d_out={r['d_out']} "
        f"max_err={r['max_err']:.3e}"
        for r in rows
    ]
    lines.append(
        f"{'PASS' if passed else 'FAIL'} verify-deepsets: "
        f"{len(rows)} cases, worst {worst:.3e} (tol {cfg['tol']:.0e})"
    )
    return passed, rows, {"worst_err": worst, "failing_cases": failing}, lines


# ---------------------------------------------------------------------------
# verify-kernel
# ---------------------------------------------------------------------------


def _kernel_sweep(cfg: dict):
    """Median relative error of the feature-map kernel estimate per m."""
    sweep = []
    for m in cfg["sweep_m"]:
        medians = []
        for s in range(cfg["sweep_seeds"]):
            rng = numkit.make_rng(1000 + s)
            fm = attention.exp_feature_map(m, 3, seed=2000 + s)
            rels = []
            for _ in range(cfg["sweep_pairs"]):
                x = rng.normal(size=3)
                x /= max(np.linalg.norm(x), 1.0)
                y = rng.normal(size=3)
                y /= max(np.linalg.norm(y), 1.0)
                truth = float(np.exp(x @ y))
                est = attention.kernel_estimate(x, y, fm)
                rels.append(abs(est - truth) / truth)
            medians.append(float(np.median(rels)))
        sweep.append({"m": m, "median_rel_err": float(np.median(medians))})
    return sweep


def cmd_verify_kernel(cfg: dict, args):
    rows = []
    worst = 0.0
    for case in range(cfg["seeds"]):
        rng = numkit.make_rng(cfg["seed"] + case)
        n = int(rng.integers(1, cfg["max_n"] + 1))
        d = int(rng.integers(1, cfg["max_d"] + 1))
        m = int(rng.integers(1, cfg["max_m"] + 1))
        w = attention.random_weights(d, rng, out_dim=d)
        X = rng.normal(size=(n, d)) * 0.5
        for fm in (attention.exp_feature_map(m, d, seed=cfg["seed"] + case),
                   attention.elu_feature_map()):
            prog = compile_kernel_vn(w, KernelSimConfig(feature_map=fm))
            got = prog.execute(attention_host_graph(n), X)
            want = attention.approx_attention(X, w, fm)
            err = numkit.max_abs_diff(got, want)
            ok = err <= cfg["tol"]
            worst = max(worst, err)
            rows.append({"phase": "exact", "case": case, "n": n, "d": d,
                         "m": fm.out_dim(d), "feature_kind": fm.kind,
                         "value": err, "ok": ok})
    passed = all(r["ok"] for r in rows)

    sweep = []
    if cfg["sweep"]:
        sweep = _kernel_sweep(cfg)
        for point in sweep:
            rows.append({"phase": "sweep", "case": None, "n": None,
                         "d": None, "m": point["m"], "feature_kind":
                         "exp_features", "value": point["median_rel_err"],
                         "ok": True})

    mlp_info = None
    if cfg["mlp_table"]:
        rng = numkit.make_rng(cfg["seed"] + 3)
        d, n = 2, 6
        w = attention.random_weights(d, rng, feature_bound=0.4)
        fm = attention.exp_feature_map(4, d, seed=11)
        prog = compile_kernel_vn(w, KernelSimConfig(
            feature_map=fm, mode="mlp", feature_bound=0.4,
            seed=cfg["seed"] + 5,
        ))
        X = rng.normal(size=(n, d))
        X = X / np.linalg.norm(X, axis=1, keepdims=True)
        X = X * (0.4 * rng.uniform(0.5, 1.0, size=(n, 1)))
        got = prog.execute(attention_host_graph(n), X)
        want = attention.approx_attention(X, w, fm)
        mlp_info = {
            "max_err": numkit.max_abs_diff(got, want),
            "piece_fits": prog.metadata["piece_fits"],
        }
        rows.append({"phase": "mlp", "case": None, "n": n, "d": d,
                     "m": 4, "feature_kind": fm.kind,
                     "value": mlp_info["max_err"], "ok": True})

    lines = []
    for point in sweep:
        lines.append(
            f"INFO sweep m={point['m']}: median relative error "
            f"{point['median_rel_err']:.4f}"
        )
    if mlp_info is not None:
        lines.append(f"INFO mlp mode: end-to-end error "
                     f"{mlp_info['max_err']:.3e}")
    lines.append(
        f"{'PASS' if passed else 'FAIL'} verify-kernel exact mode: "
        f"{cfg['seeds']} cases x 2 feature kinds, worst {worst:.3e} "
        f"(tol {cfg['tol']:.0e})"
    )
    fields = {"sweep": sweep, "mlp": mlp_info, "worst_exact_err": worst}
    return passed, rows, fields, lines


# ---------------------------------------------------------------------------
# verify-deep
# ---------------------------------------------------------------------------


def _run_checking_time2(X, w, prog) -> tuple[np.ndarray, bool]:
    """Run ``prog`` on X once: (its output, whether the time-2 trace is
    exact).  After layer 2 every node must hold exactly one accumulated
    term, and its query, staged by layer 1."""
    n, d = X.shape
    after = {}

    def keep_layer2(k, state, aux):
        if k == 2:
            after["gn"] = state.gn

    out = prog.extract(run_program(prog.initial_state(X), prog,
                                   observe=keep_layer2))
    gn = after["gn"]
    y = X[0]
    yk = y @ w.w_k
    yv = y @ w.w_v
    for i in range(n):
        # per-row einsum, as the VM's batched einsum rounds (BLAS @ does not)
        q = np.einsum("a,ac->c", X[i], w.w_q)
        e = np.exp(np.einsum("c,c->", q, yk))
        if not (np.array_equal(gn[i, d:2 * d], e * yv) and gn[i, 2 * d] == e
                and np.array_equal(gn[i, :d], X[i])
                and np.array_equal(gn[i, 2 * d + 1:3 * d + 1], q)):
            return out, False
    return out, True


def _gatv2_phase(eps: float):
    """Constructed-score selection on the three-cluster line.

    Staged at the middle cluster's centre, ``l1_score`` clears the middle
    points (inside the others' hull) by a gap; scale ln(99 * others) / gap
    gives them weight >= 0.99.  The gatv2 deep program compiled from
    ``l1_certificate`` must then keep every per-layer selection bound.
    """
    sets = three_cluster_line()
    pts = np.vstack(sets)
    n, d = pts.shape
    middle = np.arange(len(sets[0]), len(sets[0]) + len(sets[1]))
    centre = sets[1].mean(axis=0)
    score = attention.l1_score(d)
    values = attention.gatv2_scores_against(centre, pts, score)
    gap = float(values[middle].min() - np.delete(values, middle).max())
    scale = float(np.log(99.0 * (n - middle.size)) / gap)
    weights = numkit.softmax(scale * values)
    cert = l1_certificate(pts, eps=eps)
    w = attention.random_weights(d, numkit.make_rng(0))
    prog = compile_deep_vn(w, DeepSimConfig(n=n, selection="gatv2",
                                            certificate=cert))
    rep = run_and_report(pts, prog, w, reference="full", cert=cert)
    info = {"achieved_gap": gap,
            "middle_cluster_weight": float(weights[middle].sum()),
            "program_max_abs": rep.max_abs,
            "program_bounds_ok": rep.bounds_ok}
    info["ok"] = (gap > 0.0 and info["middle_cluster_weight"] >= 0.99
                  and rep.bounds_ok)
    return info, {"phase": "gatv2", "case": None, "n": n, "d": d, "c": scale,
                  "value": info["middle_cluster_weight"], "ok": info["ok"]}


def cmd_verify_deep(cfg: dict, args):
    n, d = cfg["n"], cfg["d"]
    rows = []
    worst = 0.0
    trace_ok = True
    for case in range(cfg["seeds"]):
        rng = numkit.make_rng(case)
        w = attention.random_weights(d, rng)
        X = rng.normal(size=(n, d)) * 0.6
        prog = compile_deep_vn(w, DeepSimConfig(n=n, selection="oracle"))
        got, this_trace = _run_checking_time2(X, w, prog)
        want = attention.self_attention(X, w)
        err = numkit.max_abs_diff(got, want)
        trace_ok = trace_ok and this_trace
        ok = err <= cfg["tol_oracle"] and this_trace
        worst = max(worst, err)
        rows.append({"phase": "oracle", "case": case, "n": n, "d": d,
                     "c": None, "value": err, "ok": ok})
    oracle_pass = all(r["ok"] for r in rows)

    try:
        sweep_reports = sweep_deep_amplification(
            n=n, d=d, factors=cfg["c_factors"],
            seeds=tuple(range(cfg["sweep_seeds"])),
            min_delta=cfg["min_delta"], eps=cfg["eps"],
        )
    except NoCertifiedInstance as exc:
        raise CliInputError(
            f"no certified instance for n={n}, d={d}, "
            f"min_delta={cfg['min_delta']}: {exc}"
        ) from None
    medians = []
    bounds_pass = True
    for j, factor in enumerate(cfg["c_factors"]):
        column = [row[j] for row in sweep_reports]
        med = float(np.median([rep.max_abs for rep in column]))
        medians.append(med)
        col_ok = all(rep.bounds_ok for rep in column)
        bounds_pass = bounds_pass and col_ok
        rows.append({"phase": "sweep", "case": None, "n": n, "d": d,
                     "c": float(factor), "value": med, "ok": col_ok})
    monotone = all(a > b for a, b in zip(medians, medians[1:]))
    bounds_pass = bounds_pass and monotone

    gatv2_info = None
    gatv2_pass = True
    if cfg["gatv2"]:
        gatv2_info, gatv2_row = _gatv2_phase(cfg["eps"])
        gatv2_pass = gatv2_info["ok"]
        rows.append(gatv2_row)

    passed = oracle_pass and bounds_pass and gatv2_pass
    lines = [
        f"{'PASS' if oracle_pass else 'FAIL'} verify-deep oracle mode: "
        f"{cfg['seeds']} cases, worst {worst:.3e} "
        f"(tol {cfg['tol_oracle']:.0e}); time-2 trace exact: {trace_ok}",
        f"{'PASS' if bounds_pass else 'FAIL'} amplification sweep: medians "
        + " ".join(f"{m:.2e}" for m in medians)
        + (" (strictly decreasing)" if monotone else " (NOT decreasing)"),
    ]
    if gatv2_info is not None:
        lines.append(
            f"{'PASS' if gatv2_pass else 'FAIL'} constructed-score selection: "
            f"middle-cluster weight {gatv2_info['middle_cluster_weight']:.4f},"
            f" program max error {gatv2_info['program_max_abs']:.3e}"
        )
    lines.append(
        f"{'PASS' if passed else 'FAIL'} verify-deep: oracle worst "
        f"{worst:.3e}, sweep monotone {monotone}"
        + (f", constructed-score ok {gatv2_pass}" if gatv2_info else "")
    )
    fields = {"sweep_medians": medians, "sweep_monotone": monotone,
              "trace_time2_exact": trace_ok, "gatv2": gatv2_info,
              "worst_oracle_err": worst}
    return passed, rows, fields, lines


# ---------------------------------------------------------------------------
# check-separability
# ---------------------------------------------------------------------------


def read_points_csv(path: str) -> np.ndarray:
    try:
        with open(path, newline="") as fh:
            raw_rows = [(lineno, row) for lineno, row
                        in enumerate(csv.reader(fh), start=1) if row]
    except OSError as exc:
        raise CliInputError(f"cannot read points file {path}: {exc}")
    if len(raw_rows) < 2:
        raise CliInputError("points file needs at least two rows")
    points = []
    width = len(raw_rows[0][1])
    for lineno, row in raw_rows:
        if len(row) != width:
            raise CliInputError(
                f"{path}:{lineno}: expected {width} columns, got {len(row)}"
            )
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            raise CliInputError(
                f"{path}:{lineno}: non-numeric cell in {row!r}"
            )
        if not np.all(np.isfinite(values)):
            raise CliInputError(f"{path}:{lineno}: non-finite cell in {row!r}")
        points.append(values)
    return np.array(points)


def cmd_check_separability(cfg: dict, args):
    X = read_points_csv(args.points)
    n = X.shape[0]
    rows = []
    margins = []
    for i, result in enumerate(point_separations(X, band=cfg["band"])):
        if result is None:
            rows.append({"point": i, "separable": False, "margin": None})
        else:
            _, margin = result
            margins.append(margin)
            rows.append({"point": i, "separable": True, "margin": margin})
    all_separable = len(margins) == n
    delta = min(margins) if all_separable else None
    suggested_c = (amplification_for(delta, cfg["eps"], n)
                   if all_separable else None)
    lines = []
    for r in rows:
        if r["separable"]:
            lines.append(f"point {r['point']}: separable, "
                         f"margin {r['margin']:.6g}")
        else:
            lines.append(f"point {r['point']}: NOT separable (inside the "
                         f"others' hull or within the {cfg['band']:.0e} band)")
    if all_separable:
        lines.append(f"all {n} points separable; delta = {delta:.6g}; "
                     f"suggested amplification for eps={cfg['eps']:.0e}: "
                     f"{suggested_c:.6g}")
    else:
        bad = [r["point"] for r in rows if not r["separable"]]
        lines.append(f"inseparable points: {bad}")
    fields = {"points_file": args.points, "all_separable": all_separable,
              "delta": delta, "suggested_amplification": suggested_c}
    # a report on the input, not a verification: it always passes
    return True, rows, fields, lines


# ---------------------------------------------------------------------------
# dataset-arith
# ---------------------------------------------------------------------------


def cmd_dataset_arith(cfg: dict, args):
    regions = cfg["regions"]
    rows = []
    lines = []
    for split in BENCHMARK_SPLITS:
        lines.append(f"{split.name}: {split.start_year}-{split.end_year}, "
                     f"{split.days} days")
    passed = True
    for window in BENCHMARK_WINDOWS:
        expected_row = EXPECTED_WINDOW_COUNTS[(window.history, window.predict)]
        for si, split in enumerate(BENCHMARK_SPLITS):
            count = window_count(split.days, window, regions)
            expected = expected_row[si] * regions // 11
            ok = count == expected
            passed = passed and ok
            rows.append({"split": split.name, "history": window.history,
                         "predict": window.predict, "count": count,
                         "expected": expected, "ok": ok})
            lines.append(
                f"{'PASS' if ok else 'FAIL'} {split.name} "
                f"history={window.history} predict={window.predict}: "
                f"{count} windows (expected {expected})"
            )
    lines.append(f"{'PASS' if passed else 'FAIL'} dataset-arith: "
                 f"{len(rows)} cells checked at {regions} regions")
    splits = [{"name": s.name, "start_year": s.start_year,
               "end_year": s.end_year, "days": s.days}
              for s in BENCHMARK_SPLITS]
    return passed, rows, {"splits": splits}, lines


# ---------------------------------------------------------------------------
# the command table, argument parsing and dispatch
# ---------------------------------------------------------------------------


COMMANDS = {
    "verify-deepsets": Command(
        run=cmd_verify_deepsets,
        help="check the equivariant-set-layer compiler against direct "
             "evaluation on a random grid",
        keys={
            "max_n": Key(_at_least(2), 16, "largest set size in the random grid"),
            "max_d": Key(_at_least(1), 8,
                         "largest feature dimension in the random grid"),
            "seeds": Key(_at_least(1), 50, "number of random cases"),
            "tol": Key(_positive, 1e-12, "max abs error allowed per case"),
            "inject_fault": Key(_parse_bool, False,
                                "perturb the mixing matrix by 1e-6 (negative "
                                "control; the run must fail)"),
        },
        columns=("case", "n", "d_in", "d_out", "max_err", "ok"),
    ),
    "verify-kernel": Command(
        run=cmd_verify_kernel,
        help="check the constant-depth kernelized-attention compiler (exact "
             "mode; optional convergence sweep and mlp-mode table)",
        keys={
            "max_n": Key(_at_least(1), 16, "largest node count in the random grid"),
            "max_d": Key(_at_least(1), 4,
                         "largest feature dimension in the random grid"),
            "max_m": Key(_at_least(1), 16, "largest random-feature count"),
            "seeds": Key(_at_least(1), 20, "number of random exact-mode cases"),
            "tol": Key(_positive, 1e-12, "max abs error allowed in exact mode"),
            "sweep": Key(_parse_bool, False,
                         "also measure kernel-estimate convergence over m"),
            "sweep_m": Key(_list_of(_at_least(1)), (64, 256, 1024, 4096),
                           "feature counts for the convergence sweep"),
            "sweep_pairs": Key(_at_least(1), 100,
                               "random unit-ball pairs per sweep point"),
            "sweep_seeds": Key(_at_least(1), 5, "direction seeds per sweep point"),
            "mlp_table": Key(_parse_bool, False,
                             "also compile one mlp-mode program and report its "
                             "end-to-end error"),
            "seed": Key(_at_least(0), 0, "base seed"),
        },
        columns=("phase", "case", "n", "d", "m", "feature_kind", "value",
                 "ok"),
    ),
    "verify-deep": Command(
        run=cmd_verify_deep,
        help="check the linear-depth full-attention compiler (oracle mode, "
             "time-2 trace, amplification sweep; optional constructed "
             "additive-score run)",
        keys={
            "n": Key(_at_least(2), 6, "node count for the compiled programs"),
            "d": Key(_at_least(1), 3, "feature dimension"),
            "seeds": Key(_at_least(1), 10, "number of random oracle-mode cases"),
            "tol_oracle": Key(_positive, 1e-10,
                              "max abs error allowed in oracle mode"),
            "c_factors": Key(_list_of(_positive), (2.0, 4.0, 8.0, 16.0),
                             "amplification factors (times 1/delta) for the sweep"),
            "sweep_seeds": Key(_at_least(1), 5, "certified instances in the sweep"),
            "min_delta": Key(_positive, 0.1, "required certificate margin"),
            "eps": Key(_fraction, 1e-4,
                       "selection slack for suggested amplification"),
            "gatv2": Key(_parse_bool, False,
                         "also run constructed additive-score selection and "
                         "its deep program on the three-cluster line"),
        },
        columns=("phase", "case", "n", "d", "c", "value", "ok"),
    ),
    "check-separability": Command(
        run=cmd_check_separability,
        help="per-point strict-separation report for a CSV point set",
        keys={
            "eps": Key(_fraction, 1e-4, "target selection slack for the suggested "
                                        "amplification"),
            "band": Key(_positive, 1e-6, "margin band below which separation is "
                                         "reported as unreliable"),
        },
        columns=("point", "separable", "margin"),
    ),
    "dataset-arith": Command(
        run=cmd_dataset_arith,
        help="calendar-day and sliding-window counting checks",
        keys={
            "regions": Key(_at_least(1), 11, "number of spatial regions"),
        },
        columns=("split", "history", "predict", "count", "expected", "ok"),
    ),
}


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit 1, not 2."""

    def error(self, message):
        raise CliInputError(message)


def _keys_help(table: dict) -> str:
    width = max(len(name) for name in table)
    return "config keys (via --config file or --set):\n" + "\n".join(
        f"  {name.ljust(width)}  {key.help} (default {key.default})"
        for name, key in sorted(table.items())
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="vnlab",
        description="Verification runs for attention-to-layer-program "
                    "constructions, separability checks, and dataset "
                    "arithmetic.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(
            name, help=command.help, epilog=_keys_help(command.keys),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        if name == "check-separability":
            sub.add_argument("points", help="CSV file, one point per row")
        sub.add_argument("--config", help="flat key=value config file")
        sub.add_argument("--set", action="append", default=[],
                         metavar="KEY=VAL",
                         help="override one config key (repeatable)")
        sub.add_argument("--json", metavar="PATH",
                         help="write the JSON report here (relative paths go "
                              f"under ${REPORT_DIR_ENV} if set)")
        sub.add_argument("--csv", metavar="PATH",
                         help="write the flat CSV report here")
        sub.add_argument("--quiet", action="store_true",
                         help="suppress per-case stdout lines")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command = COMMANDS[args.command]
        cfg = build_config(args.command, args.config, args.set)
        json_path = args.json and _report_path("json", args.json)
        csv_path = args.csv and _report_path("csv", args.csv)
        passed, results, fields, lines = command.run(cfg, args)
        for line in lines[-1:] if args.quiet else lines:
            print(line)
        if json_path:
            report = {"format": "cli-report/v1", "command": args.command,
                      "config": cfg, "results": results, **fields,
                      "pass": passed}
            write_json_report(report, json_path)
            print(f"json report: {json_path}")
        if csv_path:
            rows = [tuple(_fmt(r[k]) for k in command.columns)
                    for r in results]
            write_csv_report(command.columns, rows, csv_path)
            print(f"csv report: {csv_path}")
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if passed else 2


if __name__ == "__main__":
    sys.exit(main())
