"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced function on every
``greechie_mle`` module attribute that refers to it (``decompose.build_plan``
but also ``closed_form.build_plan`` and ``cli.build_plan``), so calls made
inside the package are caught as well as the benchmark's own.  A span is
(name, start, end, parent span, operation id); spans stay in memory and
are written once, when the run ends.  A function's self time is its span
minus the spans of traced calls inside it.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter
from typing import Callable

import numpy as np

# The package's layers, one per module, and the public functions timed in each.
LAYERS = {
    "diagram": (
        "build_diagram",
        "check_g1",
        "check_g2",
        "minimum_cycle_length",
        "reduce_zero_counts",
        "check_probability",
        "log_likelihood",
    ),
    "decompose": ("build_plan", "plan_verdict"),
    "closed_form": ("estimate", "solve_classical", "solve_chain_k", "finish_result"),
    "numeric": ("solve_numeric", "kkt_residual"),
    "oracle": ("brute_force_mle", "nullspace_basis"),
    "sampler": ("sample_outcomes",),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
BRUTE = "oracle.brute_force_mle"

# Functions whose call counts are reported, besides their self time.
COUNTED = (
    "diagram.minimum_cycle_length",
    "numeric.solve_numeric",
    "decompose.build_plan",
    "decompose.plan_verdict",
    "oracle.nullspace_basis",
)
# Work counters read from results and exceptions at the span boundaries.
COUNTERS = (
    "numeric.sweeps",
    "closed_form.chain_newton_iterations",
    "closed_form.chain_fallbacks",
)

SELF_MS = tuple(f"{name}.self_ms" for name in SPAN_NAMES if name != BRUTE)
COUNT_METRICS = tuple(f"{name}.calls" for name in COUNTED) + COUNTERS


class Tracer:
    """In-memory span recorder and the run's work counters."""

    def __init__(self) -> None:
        self.op_id = -1
        self._stack: list[int] = []  # indices of the open spans
        self.reset()

    def reset(self) -> None:
        """Forget every span and counter (called after the warm-up)."""
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS + ("oracle.samples",), 0)

    def counts(self) -> dict[str, int]:
        """Call counts and work counters so far."""
        names = np.frombuffer(self.name, dtype=np.int32)
        calls = np.bincount(names, minlength=len(SPAN_NAMES))
        out = {f"{name}.calls": int(calls[SPAN_NAMES.index(name)]) for name in COUNTED}
        out.update(self.counters)
        return out

    def install(self, package) -> None:
        """Wrap every traced function wherever the package refers to it."""
        prefix = package.__name__ + "."
        modules = [
            mod for name, mod in sys.modules.items()
            if name == package.__name__ or name.startswith(prefix)
        ]
        for sid, span in enumerate(SPAN_NAMES):
            layer, fn_name = span.split(".")
            original = getattr(sys.modules[prefix + layer], fn_name)
            wrapper = self._wrap(sid, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, sid: int, fn: Callable) -> Callable:
        on_return = _ON_RETURN.get(SPAN_NAMES[sid])
        on_error = _ON_ERROR.get(SPAN_NAMES[sid])
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(sid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self.counters, exc)
                raise
            finally:
                self.end[index] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(self.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def metrics(self, scale: list[float], counted_ops: int, counted: dict) -> dict:
        """Per-layer metrics.  Self times are summed over the run, each
        span scaled like the operation it belongs to, and divided by the
        operations attempted; counts are per operation of the first
        ``counted_ops`` operations, whose inputs depend only on the seed."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        inner = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(inner, parent[nested], dur[nested])
        own = (dur - inner) * np.asarray(scale)[np.frombuffer(self.op, dtype=np.int32)]
        total = np.bincount(name, weights=own, minlength=len(SPAN_NAMES))
        out = {}
        for sid, span in enumerate(SPAN_NAMES):
            if span != BRUTE:
                out[f"{span}.self_ms"] = (total[sid] * 1e3 / len(scale), "ms")
        samples = self.counters["oracle.samples"]
        brute = total[SPAN_NAMES.index(BRUTE)]
        out[f"{BRUTE}.self_us_per_sample"] = (brute * 1e6 / samples if samples else 0.0, "us")
        for metric in COUNT_METRICS:
            out[metric] = (counted[metric] / counted_ops, "count")
        return out

    def write(self, path, origin: float) -> None:
        """Save the spans, times in seconds from ``origin``, as a .npz file."""
        np.savez(
            path,
            names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start) - origin,
            end=np.frombuffer(self.end) - origin,
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


def _count_sweeps(counters, args, kwargs, result) -> None:
    counters["numeric.sweeps"] += result.diagnostics.get("sweeps", 0)


def _count_newton(counters, args, kwargs, result) -> None:
    counters["closed_form.chain_newton_iterations"] += result.diagnostics.get("iterations", 0)


def _count_failed_newton(counters, exc) -> None:
    # A chain that runs out of Newton iterations is handed to the numeric solver.
    counters["closed_form.chain_newton_iterations"] += getattr(exc, "iterations", 0)


def _count_fallback(counters, args, kwargs, result) -> None:
    counters["closed_form.chain_fallbacks"] += "fallback_from" in result.diagnostics


def _count_samples(counters, args, kwargs, result) -> None:
    budget = args[2] if len(args) > 2 else kwargs["budget"]
    counters["oracle.samples"] += budget.sample_count


_ON_RETURN: dict[str, Callable] = {
    "numeric.solve_numeric": _count_sweeps,
    "closed_form.solve_chain_k": _count_newton,
    "closed_form.estimate": _count_fallback,
    BRUTE: _count_samples,
}
_ON_ERROR: dict[str, Callable] = {"closed_form.solve_chain_k": _count_failed_newton}
