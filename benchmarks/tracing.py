"""Per-layer spans for the traced run, applied from outside the package.

``Tracer.install`` replaces package functions where they are looked up (module
attributes, and ``__call__`` of every descriptor class) with wrappers that
time each call; ``uninstall`` puts the originals back.  A span's self time is
its duration minus the time covered by its child spans; only the per-name
totals of self time and calls are kept.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from vnlab import attention, constructions, mlp, mpnnvn, separability


def _states_nbytes(result) -> int:
    """Bytes of the states ``run_program_trace`` returns as its second item."""
    _, states, _ = result
    return sum(s.gn.nbytes + s.vn.nbytes for s in states)


def descriptor_classes():
    """Descriptor classes with their own ``__call__``, with span names."""
    seen = {}
    for module in (mpnnvn, constructions):
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, mpnnvn.Descriptor)
                    and obj.kind and "__call__" in vars(obj)):
                seen[obj] = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.kind}"
    return seen


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []  # time covered by children, per open span
        self._patches = []
        self._gn_msg = None
        self._case_start = {}

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            tracer._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += elapsed
                tracer.self_s[name] += elapsed - children
                tracer.calls[name] += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters ------------------------------------------------------------

    def _note_layer(self, args, kwargs):
        layer = kwargs.get("layer", args[2] if len(args) > 2 else None)
        self._gn_msg = getattr(layer, "gn_msg", None)

    def _count_msg(self, args, result):
        if args[0] is self._gn_msg:
            self.counts["mpnnvn.msg_bytes"] += result.nbytes

    def _count_trace(self, args, result):
        self.counts["mpnnvn.trace_bytes"] += _states_nbytes(result)

    def _count_epochs(self, args, result):
        self.counts["mlp.epochs"] += result[1].epochs_run

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, name, **hooks):
        if attr not in vars(owner):
            return
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def install(self):
        self._patch(mpnnvn, "run_layer", "mpnnvn.run_layer",
                    before=self._note_layer)
        self._patch(mpnnvn, "run_program", "mpnnvn.run_program")
        self._patch(constructions, "run_program_trace", "mpnnvn.run_program_trace",
                    after=self._count_trace)
        for attr in ("save_program", "load_program", "program_to_json",
                     "program_from_json"):
            self._patch(mpnnvn, attr, f"mpnnvn.{attr}")
        for attr in ("phi_matrix", "self_attention", "approx_attention"):
            self._patch(attention, attr, f"attention.{attr}")
        for owner in (separability, constructions):
            self._patch(owner, "vdelta_certificate",
                        "separability.vdelta_certificate")
        for attr in ("strict_separation", "solve_lp"):
            self._patch(separability, attr, f"separability.{attr}")
        self._patch(mlp, "fit", "mlp.fit", after=self._count_epochs)
        self._patch(mlp, "forward", "mlp.forward")
        for attr in ("compile_deep_vn", "compile_kernel_vn", "run_and_report"):
            self._patch(constructions, attr, f"constructions.{attr}")
        for cls, name in descriptor_classes().items():
            self._patch(cls, "__call__", name, after=self._count_msg)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per case ------------------------------------------------------------

    def _case_values(self) -> dict:
        return {
            "mpnnvn.msg_bytes": self.counts["mpnnvn.msg_bytes"],
            "mpnnvn.trace_bytes": self.counts["mpnnvn.trace_bytes"],
            "mlp.epochs": self.counts["mlp.epochs"],
            "mlp.fit.calls": self.calls["mlp.fit"],
            "separability.solve_lp.calls": self.calls["separability.solve_lp"],
        }

    def begin_case(self):
        self._case_start = self._case_values()

    def end_case(self) -> dict:
        """This case's counts, which must repeat exactly for its inputs."""
        now = self._case_values()
        return {key: now[key] - self._case_start[key] for key in now}
