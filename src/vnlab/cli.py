"""Command-line front end: verification runs, sweeps, and dataset arithmetic.

Every subcommand reads an optional flat key=value config file, applies
command-line overrides on top, runs deterministically given its seeds, and
can write its full report as JSON (nested) and/or CSV (flat).  The effective
config is echoed into every report.

Exit codes: 0 everything verified, 1 usage or input error, 2 verification
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import attention, numkit
from .constructions import (
    DeepSimConfig,
    KernelSimConfig,
    attention_host_graph,
    compile_deep_vn,
    compile_kernel_vn,
    make_certified_instance,
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
    gatv2_selection_weights,
    strict_separation,
    three_cluster_line,
    train_gatv2_selector,
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


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


KEY_TABLES = {
    "verify-deepsets": {
        "max_n": Key(int, 16, "largest set size in the random grid"),
        "max_d": Key(int, 8, "largest feature dimension in the random grid"),
        "seeds": Key(int, 50, "number of random cases"),
        "tol": Key(float, 1e-12, "max abs error allowed per case"),
        "inject_fault": Key(_parse_bool, False,
                            "perturb the mixing matrix by 1e-6 (negative "
                            "control; the run must fail)"),
    },
    "verify-kernel": {
        "max_n": Key(int, 16, "largest node count in the random grid"),
        "max_d": Key(int, 4, "largest feature dimension in the random grid"),
        "max_m": Key(int, 16, "largest random-feature count"),
        "seeds": Key(int, 20, "number of random exact-mode cases"),
        "tol": Key(float, 1e-12, "max abs error allowed in exact mode"),
        "sweep": Key(_parse_bool, False,
                     "also measure kernel-estimate convergence over m"),
        "sweep_m": Key(lambda s: tuple(int(t) for t in s.split(",")),
                       (64, 256, 1024, 4096),
                       "feature counts for the convergence sweep"),
        "sweep_pairs": Key(int, 100, "random unit-ball pairs per sweep point"),
        "sweep_seeds": Key(int, 5, "direction seeds per sweep point"),
        "mlp_table": Key(_parse_bool, False,
                         "also compile one mlp-mode program and report its "
                         "end-to-end error"),
        "seed": Key(int, 0, "base seed"),
    },
    "verify-deep": {
        "n": Key(int, 6, "node count for the compiled programs"),
        "d": Key(int, 3, "feature dimension"),
        "seeds": Key(int, 10, "number of random oracle-mode cases"),
        "tol_oracle": Key(float, 1e-10, "max abs error allowed in oracle mode"),
        "c_factors": Key(_parse_floats, (2.0, 4.0, 8.0, 16.0),
                         "amplification factors (times 1/delta) for the sweep"),
        "sweep_seeds": Key(int, 5, "certified instances in the sweep"),
        "min_delta": Key(float, 0.1, "required certificate margin"),
        "eps": Key(float, 1e-4, "selection slack for suggested amplification"),
        "gatv2": Key(_parse_bool, False,
                     "also run trained-score selection on the three-cluster "
                     "line instance"),
    },
    "check-separability": {
        "eps": Key(float, 1e-4, "target selection slack for the suggested "
                                "amplification"),
        "band": Key(float, 1e-6, "margin band below which separation is "
                                 "reported as unreliable"),
    },
    "dataset-arith": {
        "regions": Key(int, 11, "number of spatial regions"),
    },
}


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
    table = KEY_TABLES[command]
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


def _config_echo(cfg: dict) -> dict:
    out = {}
    for name, value in cfg.items():
        out[name] = list(value) if isinstance(value, tuple) else value
    return out


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------


def _resolve_out(path: str) -> str:
    base = os.environ.get(REPORT_DIR_ENV)
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def write_json_report(report: dict, path: str) -> str:
    path = _resolve_out(path)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_csv_report(header, rows, path: str) -> str:
    path = _resolve_out(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


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


def cmd_verify_deepsets(cfg: dict):
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
    report = {
        "format": "cli-report/v1",
        "command": "verify-deepsets",
        "config": _config_echo(cfg),
        "results": rows,
        "worst_err": worst,
        "failing_cases": failing,
        "pass": passed,
    }
    csv_rows = [
        tuple(_fmt(r[k]) for k in
              ("case", "n", "d_in", "d_out", "max_err", "ok"))
        for r in rows
    ]
    header = ("case", "n", "d_in", "d_out", "max_err", "ok")
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
    return (0 if passed else 2), report, header, csv_rows, lines


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


def cmd_verify_kernel(cfg: dict):
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

    report = {
        "format": "cli-report/v1",
        "command": "verify-kernel",
        "config": _config_echo(cfg),
        "results": rows,
        "sweep": sweep,
        "mlp": mlp_info,
        "worst_exact_err": worst,
        "pass": passed,
    }
    header = ("phase", "case", "n", "d", "m", "feature_kind", "value", "ok")
    csv_rows = [tuple(_fmt(r[k]) for k in header) for r in rows]
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
    return (0 if passed else 2), report, header, csv_rows, lines


# ---------------------------------------------------------------------------
# verify-deep
# ---------------------------------------------------------------------------


def _trace_time2_check(X, w, prog) -> bool:
    """After layer 2 every node must hold exactly one accumulated term."""
    n, d = X.shape
    after = {}

    def keep_layer2(k, state, aux):
        if k == 2:
            after["gn"] = state.gn

    run_program(attention_host_graph(n), prog.initial_state(X), prog,
                observe=keep_layer2)
    gn = after["gn"]
    y = X[0]
    yk = y @ w.w_k
    yv = y @ w.w_v
    for i in range(n):
        e = np.exp(float((X[i] @ w.w_q) @ yk))
        if not np.array_equal(gn[i, d:2 * d], e * yv):
            return False
        if gn[i, 2 * d] != e:
            return False
        if not np.array_equal(gn[i, :d], X[i]):
            return False
    return True


def cmd_verify_deep(cfg: dict):
    n, d = cfg["n"], cfg["d"]
    rows = []
    worst = 0.0
    trace_ok = True
    for case in range(cfg["seeds"]):
        rng = numkit.make_rng(case)
        w = attention.random_weights(d, rng)
        X = rng.normal(size=(n, d)) * 0.6
        prog = compile_deep_vn(w, DeepSimConfig(n=n, selection="oracle"))
        got = prog.execute(attention_host_graph(n), X)
        want = attention.self_attention(X, w)
        err = numkit.max_abs_diff(got, want)
        ok = err <= cfg["tol_oracle"]
        if n >= 2:
            this_trace = _trace_time2_check(X, w, prog)
            trace_ok = trace_ok and this_trace
            ok = ok and this_trace
        worst = max(worst, err)
        rows.append({"phase": "oracle", "case": case, "n": n, "d": d,
                     "c": None, "value": err, "ok": ok})
    oracle_pass = all(r["ok"] for r in rows)

    sweep_reports = sweep_deep_amplification(
        n=n, d=d, factors=cfg["c_factors"],
        seeds=tuple(range(cfg["sweep_seeds"])),
        min_delta=cfg["min_delta"], eps=cfg["eps"],
    )
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
        sets = three_cluster_line()
        pts = np.vstack(sets)
        middle = len(sets[0])  # first index of the middle cluster
        res = train_gatv2_selector(sets, target=1, seed=0)
        scale = float(np.log(99.0 * (pts.shape[0] - 1)))
        weights = gatv2_selection_weights(pts, res.score, scale)
        middle_weight = float(
            weights[middle:middle + len(sets[1])].sum()
        )
        gatv2_pass = res.ok and middle_weight >= 0.99
        gatv2_info = {
            "achieved_gap": res.achieved_gap,
            "middle_cluster_weight": middle_weight,
            "ok": gatv2_pass,
        }
        rows.append({"phase": "gatv2", "case": None, "n": pts.shape[0],
                     "d": pts.shape[1], "c": scale,
                     "value": middle_weight, "ok": gatv2_pass})

    passed = oracle_pass and bounds_pass and gatv2_pass
    report = {
        "format": "cli-report/v1",
        "command": "verify-deep",
        "config": _config_echo(cfg),
        "results": rows,
        "sweep_medians": medians,
        "sweep_monotone": monotone,
        "trace_time2_exact": trace_ok,
        "gatv2": gatv2_info,
        "worst_oracle_err": worst,
        "pass": passed,
    }
    header = ("phase", "case", "n", "d", "c", "value", "ok")
    csv_rows = [tuple(_fmt(r[k]) for k in header) for r in rows]
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
            f"{'PASS' if gatv2_pass else 'FAIL'} trained-score selection: "
            f"middle-cluster weight {gatv2_info['middle_cluster_weight']:.4f}"
        )
    lines.append(
        f"{'PASS' if passed else 'FAIL'} verify-deep: oracle worst "
        f"{worst:.3e}, sweep monotone {monotone}"
        + (f", trained-score ok {gatv2_pass}" if gatv2_info else "")
    )
    return (0 if passed else 2), report, header, csv_rows, lines


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


def cmd_check_separability(cfg: dict, points_path: str):
    X = read_points_csv(points_path)
    n = X.shape[0]
    rows = []
    margins = []
    for i in range(n):
        result = strict_separation(i, X, band=cfg["band"])
        if result is None:
            rows.append({"point": i, "separable": False, "margin": None})
        else:
            _, margin = result
            margins.append(margin)
            rows.append({"point": i, "separable": True, "margin": margin})
    all_separable = len(margins) == n
    delta = min(margins) if all_separable else None
    suggested_c = (
        amplification_for(delta, cfg["eps"], n)
        if all_separable and n >= 2 else None
    )
    report = {
        "format": "cli-report/v1",
        "command": "check-separability",
        "config": _config_echo(cfg),
        "points_file": points_path,
        "results": rows,
        "all_separable": all_separable,
        "delta": delta,
        "suggested_amplification": suggested_c,
        "pass": True,
    }
    header = ("point", "separable", "margin")
    csv_rows = [tuple(_fmt(r[k]) for k in header) for r in rows]
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
    return 0, report, header, csv_rows, lines


# ---------------------------------------------------------------------------
# dataset-arith
# ---------------------------------------------------------------------------


def cmd_dataset_arith(cfg: dict):
    regions = cfg["regions"]
    if regions < 1:
        raise CliInputError("regions must be positive")
    rows = []
    lines = []
    for split in BENCHMARK_SPLITS:
        lines.append(f"{split.name}: {split.start_year}-{split.end_year}, "
                     f"{split.days} days")
    passed = True
    for wi, window in enumerate(BENCHMARK_WINDOWS):
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
    report = {
        "format": "cli-report/v1",
        "command": "dataset-arith",
        "config": _config_echo(cfg),
        "splits": [
            {"name": s.name, "start_year": s.start_year,
             "end_year": s.end_year, "days": s.days}
            for s in BENCHMARK_SPLITS
        ],
        "results": rows,
        "pass": passed,
    }
    header = ("split", "history", "predict", "count", "expected", "ok")
    csv_rows = [tuple(_fmt(r[k]) for k in header) for r in rows]
    lines.append(f"{'PASS' if passed else 'FAIL'} dataset-arith: "
                 f"{len(rows)} cells checked at {regions} regions")
    return (0 if passed else 2), report, header, csv_rows, lines


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit 1, not 2."""

    def error(self, message):
        raise CliInputError(message)


def _keys_help(command: str) -> str:
    table = KEY_TABLES[command]
    width = max(len(name) for name in table)
    return "config keys (via --config file or --set):\n" + "\n".join(
        f"  {name.ljust(width)}  {key.help} (default {key.default})"
        for name, key in sorted(table.items())
    )


def _add_common(sub):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                     help="override one config key (repeatable)")
    sub.add_argument("--json", metavar="PATH",
                     help="write the JSON report here (relative paths go "
                          f"under ${REPORT_DIR_ENV} if set)")
    sub.add_argument("--csv", metavar="PATH",
                     help="write the flat CSV report here")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress per-case stdout lines")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="vnlab",
        description="Verification runs for attention-to-layer-program "
                    "constructions, separability checks, and dataset "
                    "arithmetic.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("verify-deepsets",
         "check the equivariant-set-layer compiler against direct "
         "evaluation on a random grid"),
        ("verify-kernel",
         "check the constant-depth kernelized-attention compiler (exact "
         "mode; optional convergence sweep and mlp-mode table)"),
        ("verify-deep",
         "check the linear-depth full-attention compiler (oracle mode, "
         "time-2 trace, amplification sweep; optional trained-score run)"),
    ]:
        sub = subs.add_parser(
            name, help=help_text, epilog=_keys_help(name),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        _add_common(sub)
        if name == "verify-deepsets":
            sub.add_argument("--inject-fault", action="store_true",
                             help="negative control: perturb the reference "
                                  "and require the run to fail")
        if name == "verify-kernel":
            sub.add_argument("--sweep", action="store_true",
                             help="run the kernel-convergence sweep")
            sub.add_argument("--mlp-table", action="store_true",
                             help="compile one mlp-mode program and report "
                                  "its error")
        if name == "verify-deep":
            sub.add_argument("--gatv2", action="store_true",
                             help="run trained-score selection on the "
                                  "three-cluster instance")

    sep = subs.add_parser(
        "check-separability",
        help="per-point strict-separation report for a CSV point set",
        epilog=_keys_help("check-separability"),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sep.add_argument("points", help="CSV file, one point per row")
    _add_common(sep)

    arith = subs.add_parser(
        "dataset-arith",
        help="calendar-day and sliding-window counting checks",
        epilog=_keys_help("dataset-arith"),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_common(arith)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = build_config(args.command, args.config, args.set)
        # boolean convenience flags override config-file values when set
        if args.command == "verify-deepsets" and args.inject_fault:
            cfg["inject_fault"] = True
        if args.command == "verify-kernel":
            cfg["sweep"] = cfg["sweep"] or args.sweep
            cfg["mlp_table"] = cfg["mlp_table"] or args.mlp_table
        if args.command == "verify-deep" and args.gatv2:
            cfg["gatv2"] = True

        if args.command == "verify-deepsets":
            code, report, header, csv_rows, lines = cmd_verify_deepsets(cfg)
        elif args.command == "verify-kernel":
            code, report, header, csv_rows, lines = cmd_verify_kernel(cfg)
        elif args.command == "verify-deep":
            code, report, header, csv_rows, lines = cmd_verify_deep(cfg)
        elif args.command == "check-separability":
            code, report, header, csv_rows, lines = cmd_check_separability(
                cfg, args.points
            )
        else:
            code, report, header, csv_rows, lines = cmd_dataset_arith(cfg)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not args.quiet:
        for line in lines:
            print(line)
    elif lines:
        print(lines[-1])

    if args.json:
        path = write_json_report(report, args.json)
        print(f"json report: {path}")
    if args.csv:
        path = write_csv_report(header, csv_rows, args.csv)
        print(f"csv report: {path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
