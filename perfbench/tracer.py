"""Span tracer that wraps cubic27's public functions from outside.

Every public module-level function of the listed cubic27 modules is
replaced by a wrapper that records calls, inclusive time (``s``, counted
only at the outermost call of a recursive chain) and self time
(``self_s``: the span's duration minus the time covered by its child
spans).  Each module attribute bound to a wrapped function object is
patched, so a name imported with ``from .perm import generate`` is
attributed to ``perm.generate`` as well.  The library itself is unchanged.

Per-function observers read work counters from arguments, return values
and exceptions (group orders, tracker telemetry from ``TrackResult``,
loop records from ``MonodromyReport``).  Spans are aggregated in memory
and turned into named metrics by :func:`Tracer.metrics`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

MODULES = ("perm", "exact", "lines", "lattice", "htrack", "monodromy", "symverify", "cli")

# Hot, tiny helpers left unwrapped: a wrapper would cost as much as the call
# itself and blur the self time of every caller.  Permutation methods and
# the private ``_*_batch`` kernels are unwrapped because they are not
# public module-level functions.
UNWRAPPED = frozenset(
    {
        "perm.compose",
        "perm.format_cycles",
        "perm.parse_cycles",
        "perm.identify",
        "exact.mat_identity",
        "exact.mat_mul",
        "exact.mat_transpose",
        "exact.mat_det",
        "exact.diagonal_of",
        "lines.meet",
        "lines.catalog_line",
        "lines.tag_intersection",
        "lattice.e",
        "lattice.q_form",
        "lattice.vec_add",
        "lattice.vec_scale",
        "lattice.reflect",
        "lattice.class_vector",
        "htrack.lerp",
        "htrack.plucker",
        "htrack.line_distance",
        "htrack.residual",
        "htrack.jacobian",
        "symverify.mat_det_cyc",
    }
)

# The root span is the child's whole job.  Spans whose self time is
# orchestration (argument parsing, the private claim functions, JSON
# emission) rather than work of a named layer are ORCHESTRATION;
# ``trace.coverage`` is the share of the root span covered by the others.
ROOT = "bench.execute"
ORCHESTRATION = (ROOT, "cli.main", "monodromy.verify_claims")


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.min_separation = math.inf
        self.max_residual = 0.0
        self.reports: list = []
        self._stack: list[list[float]] = []
        self._depth: Counter[str] = Counter()
        self._observers = {
            "perm.generate": self._on_generate,
            "perm.fingerprint": self._on_fingerprint,
            "lines.graph_automorphisms": self._on_automorphisms,
            "htrack.track_segment": self._on_segment,
            "htrack.revalidate": self._on_revalidate,
            "monodromy.probe_discriminant": self._on_probe,
            "monodromy.compute_monodromy": self._on_monodromy,
        }

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of the cubic27 modules."""
        wrappers: dict[int, object] = {}
        for short in MODULES:
            mod = importlib.import_module(f"cubic27.{short}")
            for attr, value in vars(mod).items():
                name = f"{short}.{attr}"
                if attr.startswith("_") or name in UNWRAPPED:
                    continue
                func = getattr(value, "__wrapped__", value)
                if not inspect.isfunction(func) or func.__module__ != mod.__name__:
                    continue
                wrappers[id(value)] = self._wrap(name, value)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("cubic27"):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])

    def wrap_root(self, fn):
        return self._wrap(ROOT, fn)

    def _wrap(self, name: str, fn):
        observer = self._observers.get(name)
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                duration = clock() - start
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][0] += duration
                self.calls[name] += 1
                self.self_time[name] += duration - frame[0]
                if depth[name] == 0:
                    self.inclusive[name] += duration
                if observer is not None:
                    observer(args, None if error else result, error)
            return result

        return wrapper

    # -- observers ----------------------------------------------------------

    def _on_generate(self, args, result, error) -> None:
        if result is not None:
            self.counts["perm.generate.elements"] += result.order
        elif type(error).__name__ == "GroupGenerationError":
            self.counts["perm.generate.capped"] += 1

    def _on_fingerprint(self, args, result, error) -> None:
        self.counts["perm.fingerprint.elements"] += args[0].order

    def _on_automorphisms(self, args, result, error) -> None:
        if result is not None:
            self.counts["lines.graph_automorphisms.found"] += result.order

    def _on_segment(self, args, result, error) -> None:
        if error is not None:
            self.counts["htrack.track_segment.failed"] += 1
            self.counts[f"htrack.track_segment.failed.{type(error).__name__}"] += 1
            return
        self.counts["htrack.accepted_steps"] += result.accepted_steps
        # the 27 lines correct in lockstep, so every entry holds the
        # batch's iteration count
        self.counts["htrack.newton_iterations"] += max(result.newton_iterations)
        self.min_separation = min(self.min_separation, result.min_separation)
        self.max_residual = max(self.max_residual, result.max_residual)

    def _on_revalidate(self, args, result, error) -> None:
        self.counts["htrack.revalidate.ok"] += bool(result)

    def _on_probe(self, args, result, error) -> None:
        self.counts["monodromy.probe_discriminant.found"] += result is not None

    def _on_monodromy(self, args, result, error) -> None:
        if result is not None:
            self.reports.append(result)

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every recorded quantity, by metric name.  A quantity derived from
        a span that never ran is left out rather than reported as 0."""
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.inclusive[name]
            out[f"{name}.self_s"] = self.self_time[name]
        out.update(self.counts)

        steps = self.counts["htrack.accepted_steps"]
        if steps:
            out["htrack.us_per_accepted_step"] = 1e6 * self.inclusive["htrack.track_segment"] / steps
            out["htrack.newton_per_step"] = self.counts["htrack.newton_iterations"] / steps
            out["htrack.min_separation"] = self.min_separation
            out["htrack.max_residual"] = self.max_residual

        loops = [rec for report in self.reports for rec in report.loops]
        if loops:
            grew = [i for i, rec in enumerate(loops) if rec.new_elements]
            accepted = sum(rec.accepted for rec in loops)
            out["monodromy.loops"] = len(loops)
            out["monodromy.loops_accepted"] = accepted
            out["monodromy.loops_grew"] = len(grew)
            out["monodromy.loops_after_last_growth"] = len(loops) - (grew[-1] + 1 if grew else 0)
            if accepted:
                out["monodromy.s_per_accepted_loop"] = (
                    self.inclusive["monodromy.compute_monodromy"] / accepted
                )

        root_s = self.inclusive.get(ROOT)
        if root_s:
            unattributed = sum(self.self_time[name] for name in ORCHESTRATION)
            out["trace.coverage"] = 1.0 - unattributed / root_s
        return out
