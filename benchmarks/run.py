"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload deep-oracle --seed 1 --seconds 28 --trace 0

Each workload is a closed loop: one process runs one case at a time, timing
each case and then checking its outputs, until the next case would pass
``--seconds``.  Case inputs come from ``--seed`` and the case index only.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` first runs half the time untraced, then reruns the same cases
with per-layer timers (see tracing.py) and reports the per-layer metrics and
the tracing overhead.  Both modes compare each case's deterministic values
(error, byte and work counts) with every earlier run of the same source tree,
seed and case, and across the traced and untraced halves; any drift fails
the case.

The metric table goes to standard output, then one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results and per-case
rows are also written under ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import envinfo

RESULTS = envinfo.BENCH_DIR / "results"
SETUP_REPEATS = 7
# A new interpreter importing numpy took about this long on the 2-core host
# the benchmark was sized on; fresh imports are rescaled to it.
SETUP_PROBE_NOMINAL_S = 0.2
TAIL_BEYOND = 10  # samples a tail percentile must have beyond it


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def case_rng(seed: int, stream: int, index: int):
    import numpy as np

    return np.random.default_rng([seed, stream, index])


# streams of the input generator
CASES, WARMUP = 0, 1


def source_hash() -> str:
    """Identifies the code under test and the benchmark's own code."""
    h = hashlib.sha256()
    for base in (envinfo.SRC / "vnlab", envinfo.BENCH_DIR):
        for path in sorted(base.glob("*.py")):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_case(wl, inp, index, tracer=None) -> dict:
    """Time one case between two runs of the case probe, then check it."""
    row = {"case": index, "problems": [], "fingerprint": {}}
    if tracer is not None:
        tracer.begin_case()
    try:
        before = wl.case_probe.times()
        t0 = time.perf_counter()
        res, phases = wl.run(inp)
        row["case_s"] = time.perf_counter() - t0
        row["probe_s"] = statistics.median(before + wl.case_probe.times())
        row.update(phases)
        row["case_rel"] = row["case_s"] / row["probe_s"]
        row["compile_rel"] = row["compile_s"] / row["probe_s"]
        row["problems"], row["fingerprint"], timings = wl.check(inp, res)
        row.update(timings)
    except Exception as exc:  # a failing case is counted and the run goes on
        row["problems"] = [f"{type(exc).__name__}: {exc}"]
        row["traceback"] = traceback.format_exc()
    if tracer is not None:
        row["fingerprint"].update(tracer.end_case())
    return row


def closed_loop(wl, seed, seconds, max_cases=None, tracer=None) -> list:
    """Run cases 0, 1, ... until the next one would end after ``seconds``."""
    rows = []
    start = time.perf_counter()
    while max_cases is None or len(rows) < max_cases:
        index = len(rows)
        t0 = time.perf_counter()
        inp = wl.draw(case_rng(seed, CASES, index))
        rows.append(run_case(wl, inp, index, tracer))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    return rows


def fresh_import() -> None:
    """Start a new interpreter that imports the package and the benchmark.

    The checks' own dependencies (scipy for certify) are left out: they are
    not the package's set-up, and ``Workload.prepare`` imports them once.
    """
    code = (f"import sys; sys.path[:0] = [{str(envinfo.SRC)!r}, "
            f"{str(envinfo.BENCH_DIR)!r}]; import tracing, workloads")
    subprocess.run([sys.executable, "-c", code], check=True)


def interpreter_probe_s() -> float:
    """Wall time of a new interpreter importing numpy: the set-up's probe."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


def set_up(wl, seed) -> tuple[float, float, list]:
    """Median over SETUP_REPEATS of a fresh import plus one warm-up case.

    The host's speed drifts between runs, so each part of a set-up is
    divided by a probe of the same kind of work and rescaled to the probe's
    nominal time, to read in seconds: the fresh import by the mean of the
    interpreter probes just before and after it (nominal
    SETUP_PROBE_NOMINAL_S), and the warm-up case by the case probe that
    brackets it (nominal ``HostProbe.nominal_s``), as ``case_rel`` is.
    Warm-up cases draw their own inputs; returns (scaled seconds, wall
    seconds, problems).
    """
    scaled, wall, problems = [], [], []
    probe_s = interpreter_probe_s()
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fresh_import()
        t1 = time.perf_counter()
        inp = wl.draw(case_rng(seed, WARMUP, k), warm=True)
        row = run_case(wl, inp, -1 - k)
        t2 = time.perf_counter()
        after_s = interpreter_probe_s()
        case_probe_s = row.get("probe_s", wl.case_probe.nominal_s)
        wall.append(t2 - t0)
        scaled.append(
            (t1 - t0) / ((probe_s + after_s) / 2) * SETUP_PROBE_NOMINAL_S
            + (t2 - t1) / case_probe_s * wl.case_probe.nominal_s)
        probe_s = after_s
        if "traceback" in row:
            problems.append(row["problems"][0])
    return statistics.median(scaled), statistics.median(wall), problems


def check_determinism(rows, path: Path, other_rows=()) -> None:
    """Compare each case's fingerprint with stored runs and ``other_rows``.

    Keys a case shares with a stored or paired record must match exactly;
    a mismatch is added to the case's problems.  The union is stored back.
    """
    try:
        stored = json.loads(path.read_text())
    except (OSError, ValueError):
        stored = {}
    paired = {r["case"]: r["fingerprint"] for r in other_rows}
    for row in rows:
        key = str(row["case"])
        mine = row["fingerprint"]
        for label, theirs in (("an earlier run", stored.get(key, {})),
                              ("the untraced half", paired.get(row["case"], {}))):
            for name in sorted(set(mine) & set(theirs)):
                if mine[name] != theirs[name]:
                    row["problems"].append(
                        f"determinism: {name} is {mine[name]!r}, "
                        f"{label} gave {theirs[name]!r}")
        if not row["problems"]:
            stored[key] = {**stored.get(key, {}), **mine}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
    os.replace(tmp, path)


def p50(rows, key):
    vals = [r[key] for r in rows if key in r]
    return statistics.median(vals) if vals else None


def tail(rows, key):
    """Highest percentile with TAIL_BEYOND samples beyond it.

    None when that percentile would not lie above the median, i.e. with
    fewer than 2 * TAIL_BEYOND samples.
    """
    vals = sorted(r[key] for r in rows if key in r)
    if len(vals) < 2 * TAIL_BEYOND:
        return None
    k = len(vals) - TAIL_BEYOND  # samples at or below the tail value
    return {"value": vals[k - 1], "percentile": 100.0 * k / len(vals),
            "samples": len(vals)}


def end_to_end(rows, setup_s, setup_wall_s) -> dict:
    ratio = None
    if p50(rows, "execute_s") and p50(rows, "reference_s"):
        ratio = p50(rows, "execute_s") / p50(rows, "reference_s")
    errs = [r["fingerprint"]["max_abs_err"] for r in rows
            if "max_abs_err" in r["fingerprint"]]
    failed = sum(1 for r in rows if r["problems"])
    return {
        "case_rel.p50": (p50(rows, "case_rel"), "probe"),
        "execute_rel.p50": (p50(rows, "execute_rel"), "probe"),
        "compile_rel.p50": (p50(rows, "compile_rel"), "probe"),
        "probe_s.p50": (p50(rows, "probe_s"), "s"),
        "case_s.p50": (p50(rows, "case_s"), "s"),
        "case_s.tail": (tail(rows, "case_s"), "s"),
        "execute_s.p50": (p50(rows, "execute_s"), "s"),
        "reference_s.p50": (p50(rows, "reference_s"), "s"),
        "program_ratio": (ratio, "x"),
        "compile_s.p50": (p50(rows, "compile_s"), "s"),
        "certify_s.p50": (p50(rows, "certify_s"), "s"),
        "persist_s.p50": (p50(rows, "persist_s"), "s"),
        "max_abs_err": (max(errs) if errs else None, "abs"),
        "fail_frac": (failed / len(rows), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
        "setup_wall_s": (setup_wall_s, "s"),
    }


def per_layer(tracer, traced_rows, untraced_rows) -> dict:
    cases = max(len(traced_rows), 1)
    out = {}
    for name, total in tracer.self_s.items():
        out[f"{name}.self_s"] = (total / cases, "s")
    for name, total in tracer.calls.items():
        out[f"{name}.calls"] = (total / cases, "count")
    for key, unit in (("mpnnvn.msg_bytes", "B"), ("mpnnvn.trace_bytes", "B"),
                      ("mpnnvn.program_json_bytes", "B"), ("mlp.epochs", "count")):
        vals = [r["fingerprint"].get(key, 0) for r in traced_rows]
        out[key] = (sum(vals) / cases, unit)
    errs = [r["fingerprint"]["max_abs_err"] for r in traced_rows
            if "max_abs_err" in r["fingerprint"]]
    out["max_abs_err"] = (max(errs) if errs else None, "abs")
    same = {r["case"] for r in traced_rows}
    untraced = [r for r in untraced_rows if r["case"] in same]
    traced_p50, untraced_p50 = p50(traced_rows, "case_s"), p50(untraced, "case_s")
    out["trace.case_s.p50"] = (traced_p50, "s")
    out["trace.untraced_case_s.p50"] = (untraced_p50, "s")
    if traced_p50 is not None and untraced_p50 is not None:
        out["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
    return out


def print_table(title, metrics) -> None:
    print(f"== {title}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        if isinstance(value, dict):
            text = (f"{value['value']!r} {unit}  (p{value['percentile']:.1f} "
                    f"of {value['samples']} cases)")
        elif value is None:
            text = "n/a"
        else:
            text = f"{value!r} {unit}"
        print(f"  {name:44s} {text}")


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_json = envinfo.ROOT / "BENCHMARK.json"
    if not envinfo.source_present():
        print(f"error: no package source at {envinfo.SRC / 'vnlab'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(bench_json.read_text())

    envinfo.pin_threads()
    envinfo.use_source_tree()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = RESULTS / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](scratch)
    wl.prepare()

    try:
        setup_s, setup_wall_s, setup_problems = set_up(wl, args.seed)
        tracer = None
        if args.trace:
            untraced = closed_loop(wl, args.seed, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                rows = closed_loop(wl, args.seed, args.seconds / 2,
                                   max_cases=len(untraced), tracer=tracer)
            finally:
                tracer.uninstall()
        else:
            untraced, rows = [], closed_loop(wl, args.seed, args.seconds)
        fp_path = (RESULTS / "fingerprints"
                   / f"{source_hash()}-{args.workload}-{args.seed}.json")
        check_determinism(untraced, fp_path)
        check_determinism(rows, fp_path, untraced)
    finally:
        for path in scratch.iterdir():
            path.unlink()
        scratch.rmdir()

    env = envinfo.environment(args.seed)
    env.update(workload=args.workload, seconds=args.seconds, trace=args.trace)
    e2e = end_to_end(untraced if args.trace else rows, setup_s,
                     setup_wall_s)
    layers = per_layer(tracer, rows, untraced) if tracer is not None else {}
    print("== environment")
    for key, value in env.items():
        print(f"  {key:44s} {value}")
    print_table(f"{args.workload}: end-to-end "
                f"({'untraced half' if args.trace else 'untraced'})", e2e)
    if tracer is not None:
        print_table(f"{args.workload}: per layer, per case", layers)
    failed_rows = [r for r in untraced + rows if r["problems"]]
    for r in failed_rows[:5]:
        print(f"  case {r['case']} failed: {'; '.join(r['problems'][:3])}")
    for problem in setup_problems:
        print(f"  set-up failed: {problem}")

    metrics = {}
    for m in spec["per_layer"] if args.trace else spec["end_to_end"]:
        if args.trace:  # a layer this workload does not use reads 0
            value, unit = layers.get(m["name"], (0.0, m["unit"]))
        else:
            value, unit = e2e[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']} is measured in {unit}, "
                             f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": 0.0 if value is None else value,
                              "unit": unit}
    result = {
        "correct": not failed_rows and not setup_problems,
        "attempted": len(untraced) + len(rows),
        "failed": len(failed_rows),
        "metrics": metrics,
    }

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({
        "environment": env, "result": result,
        "end_to_end": {k: v[0] for k, v in e2e.items()},
        "per_layer": {k: v[0] for k, v in layers.items()},
        "cases": untraced + rows,
    }, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
