"""One-off scaling table: program time against its reference as n grows.

    python3 benchmarks/scaling.py

Not gated.  It reproduces the baselines the benchmark was sized from and
shows whether the deep program's time ratio to ``self_attention`` grows with
n.  Each program time is the median of ``REPEATS`` calls; each call is
followed by calls of its reference layer, so a slow spell of the host slows
both.  Writes ``benchmarks/results/scaling.json`` and prints the table as
Markdown.
"""

from __future__ import annotations

import json
import sys

import envinfo

DEEP_NS = (16, 64, 256, 512)  # d = 8, oracle selection
CERT_NS = (16, 32, 64)  # d = 3, unit-sphere points
REPEATS = 5  # timed calls per row
REF_PER_RUN = 20  # reference calls after each program call


def main() -> int:
    if not envinfo.source_present():
        print(f"error: no package source at {envinfo.SRC / 'vnlab'}",
              file=sys.stderr)
        return 2
    envinfo.pin_threads()
    envinfo.use_source_tree()
    import numpy as np

    from vnlab import attention, constructions, separability
    from workloads import interleaved_medians, timed_median, unit_rows

    rng = np.random.default_rng(0)
    rows = []

    def add(case, n, prog_s, ref_s=None):
        rows.append({"case": case, "n": n, "program_s": prog_s,
                     "reference_s": ref_s,
                     "ratio": None if ref_s is None else prog_s / ref_s})

    for n in DEEP_NS:
        X = rng.normal(size=(n, 8)) * 0.3
        w = attention.random_weights(8, rng)
        prog = constructions.compile_deep_vn(w, constructions.DeepSimConfig(n=n))
        g = constructions.attention_host_graph(n)
        _, _, prog_s, ref_s = interleaved_medians(
            lambda: prog.execute(g, X), lambda: attention.self_attention(X, w),
            REPEATS, REF_PER_RUN)
        add("deep program (oracle, d=8) vs self_attention", n, prog_s, ref_s)

    n = 4096
    X = rng.normal(size=(n, 16)) * 0.25
    w = attention.random_weights(16, rng)
    fm = attention.exp_feature_map(256, 16, seed=1)
    prog = constructions.compile_kernel_vn(
        w, constructions.KernelSimConfig(feature_map=fm))
    g = constructions.attention_host_graph(n)
    _, _, prog_s, ref_s = interleaved_medians(
        lambda: prog.execute(g, X), lambda: attention.approx_attention(X, w, fm),
        REPEATS, 1)
    add("kernel program (exact, d=16, m=256) vs approx_attention", n,
        prog_s, ref_s)

    for n in CERT_NS:
        X = unit_rows(rng, n, 3)
        _, cert_s = timed_median(REPEATS,
                                 lambda: separability.vdelta_certificate(X))
        add("vdelta_certificate (d=3)", n, cert_s)

    fm = attention.exp_feature_map(4, 2, 11)
    w = attention.random_weights(2, rng, feature_bound=0.4)
    cfg = constructions.KernelSimConfig(feature_map=fm, mode="mlp",
                                        feature_bound=0.4, seed=5)
    _, compile_s = timed_median(REPEATS,
                                lambda: constructions.compile_kernel_vn(w, cfg))
    add("compile_kernel_vn (mlp, d=2, m=4)", None, compile_s)

    env = envinfo.environment()
    out = envinfo.BENCH_DIR / "results" / "scaling.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"environment": env, "repeats": REPEATS,
                               "rows": rows}, indent=1))

    print("| case | n | program (s) | reference (s) | ratio |")
    print("| --- | ---: | ---: | ---: | ---: |")
    for r in rows:
        ref = "" if r["reference_s"] is None else f"{r['reference_s']:.3g}"
        ratio = "" if r["ratio"] is None else f"{r['ratio']:.3g}x"
        n = "" if r["n"] is None else r["n"]
        print(f"| {r['case']} | {n} | {r['program_s']:.3g} | {ref} | {ratio} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
