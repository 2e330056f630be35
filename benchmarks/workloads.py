"""The four benchmark workloads.

Each workload draws one case's inputs from a generator, runs the case through
the package's public API (the timed part), and checks the outputs against a
reference that is not the compiler under test (untimed for ``case_s``).

Every package function is looked up through its module at call time
(``constructions.compile_deep_vn(...)``), so the traced run's wrappers, which
replace those module attributes, see every call.
"""

from __future__ import annotations

import importlib
import time
import warnings
from pathlib import Path

import numpy as np

from vnlab import attention, constructions, mpnnvn, separability

# Tolerances of the independent checks.
DEEP_ORACLE_TOL = 1e-10  # oracle selection reproduces softmax attention
BOX_TOL = 1e-9  # LP roundoff on the |w|_inf <= 1 box
MARGIN_TOL = 1e-9  # reported margin reached by direct dot products
LINPROG_TOL = 1e-7  # our simplex margin against scipy's HiGHS optimum


def timed_median(repeats: int, fn):
    """Call ``fn`` ``repeats`` times; return its last result and median time."""
    times = []
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, float(np.median(times))


class HostProbe:
    """A fixed computation, timed around every case, that measures host speed.

    On a shared host the machine's speed swings by up to 2x within seconds,
    its average drifts from minute to minute, and interpreter-bound,
    array-bound and memory-bound work are slowed by different amounts.  A
    case time divided by the time of a probe with the same mix, taken just
    before and after the case, drifts far less.  The probe is the
    benchmark's own code, so a change to the package moves the case time
    and not the probe.

    kinds: "python" is a loop of small numpy products (the VM's per-row
    updates, the LP's row operations); "arrays" is a small MLP training
    step on a 513-point lattice (the piece fitter); "memory" fills fresh
    wide matrices and multiplies them (the kernel program's copies and
    BLAS calls).

    ``nominal_s`` is a round figure near the kind's median time on the
    2-core host the benchmark was sized on; set-up times are rescaled to it.
    """

    repeats = 3
    NOMINAL_S = {"python": 1e-3, "arrays": 4e-3, "memory": 12e-3}

    def __init__(self, kind: str):
        self.nominal_s = self.NOMINAL_S[kind]
        rng = np.random.default_rng(20231)
        self.rows = rng.normal(size=(256, 8))
        self.m = rng.normal(size=(8, 8)) * 0.1
        self.lattice = np.linspace(-2.0, 2.0, 513).reshape(-1, 1)
        self.w1, self.w2 = rng.normal(size=(1, 48)), rng.normal(size=(48, 1))
        self.x = rng.normal(size=(1024, 16)) * 0.25
        self.dirs = rng.normal(size=(16, 256))
        self.once = {"python": self._python, "arrays": self._arrays,
                     "memory": self._memory}[kind]

    def _python(self) -> float:
        acc = 0.0
        for row in self.rows:
            acc += float(np.exp((row @ self.m) @ row * 0.1))
        return acc

    def _arrays(self) -> float:
        w1, w2 = self.w1.copy(), self.w2.copy()
        for _ in range(10):
            z = self.lattice @ w1
            h = np.where(z > 0.0, z, np.expm1(np.minimum(z, 0.0)))
            resid = h @ w2 - self.lattice ** 2
            grad2 = h.T @ resid / 513.0
            grad1 = self.lattice.T @ ((resid @ w2.T) * (z > 0.0)) / 513.0
            w1 -= 1e-3 * grad1
            w2 -= 1e-3 * grad2
        return float(w2.sum())

    def _memory(self) -> float:
        P = np.exp(self.x @ self.dirs - 0.5)
        wide = np.tile(P.sum(axis=0), (self.x.shape[0], 17))
        return float((P.T @ self.x).sum() + wide[-1, -1])

    def times(self) -> list:
        return [timed_median(1, self.once)[1] for _ in range(self.repeats)]


def interleaved_medians(program, reference, repeats: int, ref_per_run: int):
    """Median times of ``program`` and ``reference`` and their last results.

    Each program call is followed by ``ref_per_run`` reference calls, so a
    slow spell of the host slows both.
    """
    prog_times, ref_times = [], []
    for _ in range(repeats):
        out, t = timed_median(1, program)
        prog_times.append(t)
        for _ in range(ref_per_run):
            want, t = timed_median(1, reference)
            ref_times.append(t)
    return out, want, float(np.median(prog_times)), float(np.median(ref_times))


def unit_rows(rng, n: int, d: int) -> np.ndarray:
    X = rng.normal(size=(n, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


class Workload:
    """One kind of case.

    The check times ``exec_repeats`` calls of the program, each followed by
    ``ref_per_exec`` calls of the reference layer, so that a slow spell of
    the host slows both.  The counts are constants so that traced call
    counts repeat exactly.  ``case_probe_kind`` and ``exec_probe_kind`` name
    the host probes whose mix of work matches the case and the program run.
    """

    name = ""
    case_probe_kind = "python"
    exec_probe_kind = "python"
    exec_repeats = 1
    ref_per_exec = 1
    extra_imports = ()

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self._graphs = {}
        self.case_probe = HostProbe(self.case_probe_kind)
        self.exec_probe = HostProbe(self.exec_probe_kind)

    def prepare(self) -> None:
        """Imports and fixed inputs shared by every case."""
        for module in self.extra_imports:
            importlib.import_module(module)

    def graph(self, n: int):
        if n not in self._graphs:
            self._graphs[n] = constructions.attention_host_graph(n)
        return self._graphs[n]

    def draw(self, rng, warm: bool = False) -> dict:
        raise NotImplementedError

    def run(self, inp: dict):
        """The timed case: returns (result, {phase name: seconds})."""
        raise NotImplementedError

    def check(self, inp: dict, res) -> tuple[list, dict, dict]:
        """Returns (problems, fingerprint, timings of the program run)."""
        raise NotImplementedError

    def time_program(self, prog, X, reference):
        """Program output, reference output and the timings of both.

        ``execute_rel`` is the program's median time over the median time
        of the execute probe taken just before and after.
        """
        g = self.graph(X.shape[0])
        before = self.exec_probe.times()
        out, want, exec_s, ref_s = interleaved_medians(
            lambda: prog.execute(g, X), reference, self.exec_repeats,
            self.ref_per_exec)
        probe_s = float(np.median(before + self.exec_probe.times()))
        return out, want, {"execute_s": exec_s, "reference_s": ref_s,
                           "execute_rel": exec_s / probe_s}


class DeepOracle(Workload):
    """n+2 thin layers: the VM's per-layer path, plus program persistence."""

    name = "deep-oracle"
    n, d, warm_n, row_scale = 256, 8, 32, 0.3
    exec_repeats, ref_per_exec = 1, 20

    def draw(self, rng, warm=False):
        n = self.warm_n if warm else self.n
        X = rng.normal(size=(n, self.d)) * self.row_scale
        return {"X": X, "w": attention.random_weights(self.d, rng)}

    def _path(self, tag: str) -> Path:
        return self.scratch / f"{self.name}-{tag}.program.json"

    def run(self, inp):
        X, w = inp["X"], inp["w"]
        path = self._path("saved")
        t0 = time.perf_counter()
        prog = constructions.compile_deep_vn(
            w, constructions.DeepSimConfig(n=X.shape[0], selection="oracle"))
        t1 = time.perf_counter()
        mpnnvn.save_program(prog, path)
        loaded = mpnnvn.load_program(path)
        t2 = time.perf_counter()
        report = constructions.run_and_report(X, loaded, w, reference="full")
        t3 = time.perf_counter()
        phases = {"compile_s": t1 - t0, "persist_s": t2 - t1, "report_s": t3 - t2}
        return {"program": loaded, "report": report}, phases

    def check(self, inp, res):
        X, w = inp["X"], inp["w"]
        out, want, timings = self.time_program(
            res["program"], X, lambda: attention.self_attention(X, w))
        problems = []
        exec_err = float(np.max(np.abs(out - want)))
        if not exec_err <= DEEP_ORACLE_TOL:
            problems.append(
                f"execute output differs from self_attention by {exec_err:.3e}")
        # The timed case's own output, which runs through run_program_trace.
        report = res["report"]
        if not report.max_abs <= DEEP_ORACLE_TOL:
            problems.append(
                f"case output differs from self_attention by {report.max_abs:.3e}")
        if len(report.per_node) != X.shape[0]:
            problems.append(f"report covers {len(report.per_node)} of "
                            f"{X.shape[0]} nodes")
        err = max(exec_err, report.max_abs)
        saved = self._path("saved")
        again = self._path("again")
        mpnnvn.save_program(res["program"], again)
        if again.read_bytes() != saved.read_bytes():
            problems.append("loaded program re-serializes to different bytes")
        fingerprint = {"max_abs_err": err,
                       "mpnnvn.program_json_bytes": saved.stat().st_size}
        return problems, fingerprint, timings


class KernelWide(Workload):
    """Two layers with a 4352-wide virtual node: BLAS-bound, no dispatch."""

    name = "kernel-wide"
    case_probe_kind = exec_probe_kind = "memory"
    n, d, m, row_scale = 4096, 16, 256, 0.25
    exec_repeats, ref_per_exec = 1, 3

    def draw(self, rng, warm=False):
        X = rng.normal(size=(self.n, self.d)) * self.row_scale
        w = attention.random_weights(self.d, rng)
        fm = attention.exp_feature_map(self.m, self.d,
                                       seed=int(rng.integers(2**31)))
        return {"X": X, "w": w, "fm": fm}

    def run(self, inp):
        X, w, fm = inp["X"], inp["w"], inp["fm"]
        g = self.graph(X.shape[0])
        t0 = time.perf_counter()
        prog = constructions.compile_kernel_vn(
            w, constructions.KernelSimConfig(feature_map=fm, mode="exact"))
        t1 = time.perf_counter()
        out = prog.execute(g, X)
        return {"program": prog, "out": out}, {"compile_s": t1 - t0}

    def check(self, inp, res):
        X, w, fm = inp["X"], inp["w"], inp["fm"]
        _, want, timings = self.time_program(
            res["program"], X, lambda: attention.approx_attention(X, w, fm))
        problems = []
        out = res["out"]
        if not np.array_equal(out, want):
            problems.append("output is not bitwise equal to approx_attention")
        err = float(np.max(np.abs(out - want)))
        return problems, {"max_abs_err": err}, timings


def linprog_margin(X, i: int) -> float:
    """Optimal separation margin of point i by scipy's HiGHS solver.

    max t  s.t.  w.(x_i - x_j) >= t  for all j != i,  -1 <= w <= 1
    """
    from scipy.optimize import linprog

    n, d = X.shape
    diffs = X[i] - np.delete(X, i, axis=0)
    A_ub = np.hstack([-diffs, np.ones((n - 1, 1))])
    c = np.zeros(d + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(n - 1),
                  bounds=[(-1.0, 1.0)] * d + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"linprog failed on point {i}: {res.message}")
    return -float(res.fun)


class Certify(Workload):
    """The LP certifier, then a softmax-selection deep program and its report."""

    name = "certify"
    n, d, warm_n = 32, 3, 12
    feature_bound = 1.0
    exec_repeats, ref_per_exec = 5, 10
    extra_imports = ("scipy.optimize",)

    def draw(self, rng, warm=False):
        n = self.warm_n if warm else self.n
        X = unit_rows(rng, n, self.d) * self.feature_bound
        return {"X": X, "w": attention.random_weights(self.d, rng)}

    def run(self, inp):
        X, w = inp["X"], inp["w"]
        t0 = time.perf_counter()
        cert = separability.vdelta_certificate(X)
        t1 = time.perf_counter()
        if not isinstance(cert, separability.SeparabilityCertificate):
            raise RuntimeError(f"points not certified: {cert}")
        prog = constructions.compile_deep_vn(w, constructions.DeepSimConfig(
            n=X.shape[0], selection="softmax", certificate=cert,
            amplification=cert.amplification))
        t2 = time.perf_counter()
        report = constructions.run_and_report(
            X, prog, w, reference="full", cert=cert,
            feature_bound=self.feature_bound)
        t3 = time.perf_counter()
        phases = {"certify_s": t1 - t0, "compile_s": t2 - t1, "report_s": t3 - t2}
        return {"cert": cert, "program": prog, "report": report}, phases

    def check(self, inp, res):
        X, w = inp["X"], inp["w"]
        cert, report = res["cert"], res["report"]
        problems = []
        sup = float(np.max(np.abs(cert.directions)))
        if not sup <= 1.0 + BOX_TOL:
            problems.append(f"direction sup-norm {sup!r} exceeds 1")
        for i in range(X.shape[0]):
            reached = float(np.min(np.delete(X[i] - X, i, axis=0)
                                   @ cert.directions[i]))
            if not reached >= cert.margins[i] - MARGIN_TOL:
                problems.append(f"point {i}: direction reaches {reached!r}, "
                                f"reported margin {cert.margins[i]!r}")
            best = linprog_margin(X, i)
            if not abs(best - cert.margins[i]) <= LINPROG_TOL:
                problems.append(f"point {i}: margin {cert.margins[i]!r}, "
                                f"linprog optimum {best!r}")
        if not report.bounds_ok:
            problems.append("report bounds_ok is false")
        if len(report.selection) != X.shape[0] or not all(
                entry.get("weight_ok") is True for entry in report.selection):
            problems.append("a selection weight_ok is missing or false")
        out, want, timings = self.time_program(
            res["program"], X, lambda: attention.self_attention(X, w))
        err = float(np.max(np.abs(out - want)))
        return problems, {"max_abs_err": err}, timings


class MlpCompile(Workload):
    """mlp-mode kernel compile: fitted pieces, the only user of vnlab.mlp."""

    name = "mlp-compile"
    case_probe_kind = "arrays"
    d, n, feature_bound = 2, 6, 0.4
    fm_features, fm_seed, compile_seed = 4, 11, 5
    exec_repeats, ref_per_exec = 30, 6

    def prepare(self):
        super().prepare()
        self.fm = attention.exp_feature_map(self.fm_features, self.d,
                                            self.fm_seed)

    def draw(self, rng, warm=False):
        w = attention.random_weights(self.d, rng,
                                     feature_bound=self.feature_bound)
        radii = self.feature_bound * rng.uniform(0.5, 1.0, size=(self.n, 1))
        X = unit_rows(rng, self.n, self.d) * radii
        # a warm-up takes the same code paths on a small fitting budget
        budget = dict(probe_batches=2, piece_epochs=200,
                      piece_restarts=1) if warm else {}
        cfg = constructions.KernelSimConfig(
            feature_map=self.fm, mode="mlp", feature_bound=self.feature_bound,
            seed=self.compile_seed, **budget)
        return {"X": X, "w": w, "cfg": cfg}

    def run(self, inp):
        X = inp["X"]
        g = self.graph(X.shape[0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            prog = constructions.compile_kernel_vn(inp["w"], inp["cfg"])
            t1 = time.perf_counter()
            out = prog.execute(g, X)
        runtime = [str(c.message) for c in caught
                   if issubclass(c.category, RuntimeWarning)]
        return ({"program": prog, "out": out, "warnings": runtime},
                {"compile_s": t1 - t0})

    def check(self, inp, res):
        X, w = inp["X"], inp["w"]
        _, want, timings = self.time_program(
            res["program"], X, lambda: attention.approx_attention(X, w, self.fm))
        problems = [f"RuntimeWarning: {m}" for m in res["warnings"]]
        out = res["out"]
        if not np.all(np.isfinite(out)):
            problems.append("output is not finite")
        err = float(np.max(np.abs(out - want)))
        return problems, {"max_abs_err": err}, timings


WORKLOADS = {cls.name: cls for cls in (DeepOracle, KernelWide, Certify,
                                        MlpCompile)}
