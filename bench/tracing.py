"""Span tracer installed from outside the package.

Every public function of the fracrec modules is replaced by a wrapper in each
module namespace that binds it, because the package calls its own functions
through the importing module's globals (``full_pipeline`` reaches
``fracrec.reconstruct.assemble_ucp``, ``solve_dirichlet`` reaches
``fracrec.forward.hs_norm``).  A span records name, layer, start, end, parent
span and op id; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

LAYERS = ("grid", "forward", "ucp", "reconstruct", "cli", "experiments", "svgplot")


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "note")

    def __init__(self, name, layer, parent, op):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start = self.end = 0
        self.note = None


def _note_build_sobolev(result, exc, bound):
    if result is not None:
        return {"dense_bytes": int(result.frac_lap.nbytes + result.gram_hs.nbytes)}
    return None


def _note_minimal_l2(result, exc, bound):
    if result is not None:
        return {"iterations": int(result.iterations), "converged": bool(result.converged)}
    if type(exc).__name__ == "OptimizerNonConvergence":
        # the budget was exhausted: every allowed iteration ran
        return {"iterations": int(bound.arguments.get("max_iterations", 200_000)),
                "converged": False}
    return None


# per-function extras recorded at the span; `bound` holds the call's arguments
_NOTES = {
    "build_sobolev": (_note_build_sobolev, False),
    "minimal_l2_reconstruct": (_note_minimal_l2, True),
}


class Tracer:
    """Installs span wrappers on the package and keeps the spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self, modules) -> None:
        """Wrap each public function of `modules` wherever it is bound."""
        originals = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = (fn, self._wrap(layer, name, fn))
        for mod in modules:
            for name, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, name, hit[1])
                    self._undo.append((mod, name, val))

    def uninstall(self) -> None:
        for mod, name, val in reversed(self._undo):
            setattr(mod, name, val)
        self._undo.clear()

    def _wrap(self, layer, name, fn):
        note_fn, wants_args = _NOTES.get(name, (None, False))
        sig = inspect.signature(fn) if wants_args else None
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span.end = clock()
                stack.pop()
                if note_fn is not None:
                    bound = sig.bind(*args, **kwargs) if sig is not None else None
                    span.note = note_fn(result, exc, bound)

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "layer": s.layer, "start_ns": s.start,
                    "end_ns": s.end, "parent": s.parent, "op": s.op, "note": s.note,
                }) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Duration of each span minus the time its child spans cover (ns)."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans: list[Span], n_ops: int) -> dict:
    """Per-layer metrics of the op spans: name -> (value, unit, samples).

    `n_ops` is the number of traced ops; spans with op None (set-up and the
    benchmark's own checks) are left out, except that `build_sobolev` calls
    are averaged wherever they ran, so a workload that builds once at set-up
    still reports the build.
    """
    selfs = self_times(spans)
    ops = [i for i, s in enumerate(spans) if s.op is not None]

    def per_op(ns):
        return (ns / 1e6 / n_ops if n_ops else 0.0, "ms", n_ops)

    def count_per_op(k):
        return (k / n_ops if n_ops else 0.0, "count", n_ops)

    def named(name):
        return [i for i in ops if spans[i].name == name]

    def incl(idx):
        return sum(spans[i].end - spans[i].start for i in idx)

    def per_call(idx):
        return (incl(idx) / 1e6 / len(idx) if idx else 0.0, "ms", len(idx))

    m: dict = {}
    builds = [i for i, s in enumerate(spans) if s.name == "build_sobolev"]
    m["grid.build_sobolev_ms"] = per_call(builds)
    dense = [spans[i].note["dense_bytes"] for i in builds if spans[i].note]
    m["grid.dense_mb"] = (max(dense) / 1e6 if dense else 0.0, "MB", len(dense))
    hs = named("hs_norm")
    m["grid.hs_norm_calls"] = count_per_op(len(hs))
    m["grid.hs_norm_ms"] = per_op(incl(hs))
    m["forward.solve_dirichlet_ms"] = per_op(incl(named("solve_dirichlet")))
    m["forward.check_dirichlet_uniqueness_ms"] = per_op(incl(named("check_dirichlet_uniqueness")))
    asm = named("assemble_ucp")
    m["ucp.assemble_ucp_calls"] = count_per_op(len(asm))
    m["ucp.assemble_ucp_ms"] = per_call(asm)
    m["ucp.ucp_svd_ms"] = per_call(named("ucp_svd"))
    m["ucp.spectral_reconstruct_ms"] = per_call(named("spectral_reconstruct"))
    m["ucp.tikhonov_reconstruct_ms"] = per_call(named("tikhonov_reconstruct"))
    ml2 = named("minimal_l2_reconstruct")
    m["ucp.minimal_l2_reconstruct_ms"] = per_op(incl(ml2))
    notes = [spans[i].note for i in ml2 if spans[i].note]
    iters = sum(n["iterations"] for n in notes)
    conv = sum(1 for n in notes if n["converged"])
    m["ucp.minimal_l2_iterations"] = count_per_op(iters)
    m["ucp.minimal_l2_nonconverged"] = count_per_op(len(ml2) - conv)
    m["ucp.minimal_l2_converged_ratio"] = (conv / len(ml2) if ml2 else 0.0, "ratio", len(ml2))

    solves = named("recover_interior")
    solve_set = set(solves)
    schemes = ("spectral_reconstruct", "tikhonov_reconstruct", "minimal_l2_reconstruct")
    alphas = sum(1 for i in ops if spans[i].name in schemes and spans[i].parent in solve_set)
    m["reconstruct.alphas_per_solve"] = (alphas / len(solves) if solves else 0.0, "count", len(solves))
    m["reconstruct.recover_interior_self_ms"] = per_op(sum(selfs[i] for i in solves))
    m["reconstruct.synthetic_measurement_ms"] = per_op(incl(named("synthetic_measurement")))
    m["reconstruct.measurement_to_h_ms"] = per_op(incl(named("measurement_to_h")))
    m["reconstruct.quotient_q_ms"] = per_op(incl(named("quotient_q")))
    m["reconstruct.full_pipeline_self_ms"] = per_op(sum(selfs[i] for i in named("full_pipeline")))

    m["cli.load_problem_ms"] = per_op(incl(named("load_problem")))
    inside_load = set()
    for i in ops:
        p = spans[i].parent
        if spans[i].name == "load_problem" or (p in inside_load):
            inside_load.add(i)
    m["cli.main_self_ms"] = per_op(sum(selfs[i] for i in ops
                                       if spans[i].layer == "cli" and i not in inside_load))
    for layer in ("grid", "forward", "ucp", "reconstruct", "cli"):
        m[f"{layer}.self_ms"] = per_op(sum(selfs[i] for i in ops if spans[i].layer == layer))
    return m


# metrics that count work and must repeat exactly between two traced runs
EXACT_COUNTS = (
    "grid.dense_mb",
    "grid.hs_norm_calls",
    "ucp.assemble_ucp_calls",
    "reconstruct.alphas_per_solve",
    "ucp.minimal_l2_iterations",
    "ucp.minimal_l2_nonconverged",
)
