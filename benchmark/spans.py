"""Outside-in span recorder for the traced benchmark run.

The program under test has no tracing of its own, so this module wraps it
from the outside: every public function (and every public plain method of a
public class) defined in one of the layer modules is replaced by a wrapper
that records one span per call. A function is rebound in *every* package
namespace that holds it, because ``from .statevector import build_graph_state``
copies the reference into ``entanglement``, ``suite``, ``cli`` and the package
``__init__``; wrapping only the defining module would let those calls escape.

Spans live in flat ``array`` columns (name id, parent index, op id, start,
end, work) so a traced run of half a million calls stays a few tens of MiB,
and are written once, at the end, by :meth:`SpanRecorder.save`.

The recorder keeps one stack of open spans, so it is only valid for
single-threaded runs; the benchmark never starts threads or pools.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import tracemalloc
from array import array
from time import perf_counter

import numpy as np

#: Layers wrapped by the recorder: the program's modules that do work.
#: ``errors`` only defines exception types.
LAYERS = ("digraph", "statevector", "entanglement", "suite", "cli")

#: Root span the benchmark opens around each op; its self time is op time
#: spent outside every wrapped function (e.g. ``DirectedGraph`` construction).
OP_SPAN = "bench.op"

#: The span whose calls also record their amplitude count (work column) and,
#: when memory probing is on, the tracemalloc peak inside the call.
BUILD_SPAN = "statevector.build_graph_state"


class SpanRecorder:
    """Records spans around wrapped calls and aggregates them per op."""

    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN]
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._work = array("d")
        self._stack = [-1]
        self.op = -1
        self.probe_memory = False
        #: (tracemalloc peak bytes, amplitude count) per probed build call
        self.build_peaks: list[tuple[int, int]] = []
        self.wrapped = 0

    # -- recording -------------------------------------------------------

    def _open(self, name_id: int, work: float) -> int:
        idx = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._op.append(self.op)
        self._work.append(work)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` as op ``op_id`` under a root ``bench.op`` span."""
        self.op = op_id
        idx = self._open(0, 0.0)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.op = -1

    def _wrap(self, fn, qualname: str):
        name_id = len(self.names)
        self.names.append(qualname)
        rec = self

        if qualname == BUILD_SPAN:

            @functools.wraps(fn)
            def span(*args, **kwargs):
                g = args[0] if args else kwargs["g"]
                amps = 1 << g.M
                idx = rec._open(name_id, float(amps))
                probing = rec.probe_memory
                if probing:
                    tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    if probing:
                        rec.build_peaks.append((tracemalloc.get_traced_memory()[1], amps))
                        tracemalloc.stop()
                    rec._close(idx)

            return span

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = rec._open(name_id, 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(idx)

        return span

    # -- installation ----------------------------------------------------

    def install(self, package: str) -> None:
        """Wrap the public functions of ``package``'s layer modules in place.

        Must run after the final import of the package; the process is not
        expected to use the unwrapped program afterwards.
        """
        namespaces = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    for attr, meth in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(meth):
                            setattr(obj, attr, self._wrap(meth, f"{layer}.{name}.{attr}"))
                            self.wrapped += 1
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(ns, name, wrapper)
                    self.wrapped += 1

    # -- results ---------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self._op, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "work": np.frombuffer(self._work, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span, plus the name table, to one ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.columns())

    def per_op(self) -> list[dict]:
        """One summary per op: per-span totals, call counts and layer self time.

        A span's self time is its duration minus the time covered by its
        direct children; children never overlap in a single-threaded run.
        """
        c = self.columns()
        dur = c["end"] - c["start"]
        cover = np.zeros_like(dur)
        has_parent = c["parent"] >= 0
        np.add.at(cover, c["parent"][has_parent], dur[has_parent])
        self_t = dur - cover
        layer_of = np.array([n.split(".")[0] for n in self.names])
        out = []
        for op in np.unique(c["op"][c["op"] >= 0]):
            sel = c["op"] == op
            names = c["name"][sel]
            n_names = len(self.names)
            total = np.bincount(names, weights=dur[sel], minlength=n_names)
            calls = np.bincount(names, minlength=n_names)
            own = np.bincount(names, weights=self_t[sel], minlength=n_names)
            work = np.bincount(names, weights=c["work"][sel], minlength=n_names)
            summary = {
                "op_s": float(total[0]),
                "spans": int(sel.sum()),
                "total": {},
                "calls": {},
                "work": {},
                "self": {},
            }
            for i, name in enumerate(self.names):
                if calls[i]:
                    summary["total"][name] = float(total[i])
                    summary["calls"][name] = int(calls[i])
                    summary["work"][name] = float(work[i])
            for layer in np.unique(layer_of):
                summary["self"][str(layer)] = float(own[layer_of == layer].sum())
            out.append(summary)
        return out


def layer_metrics(rec: SpanRecorder, traced_p50: float, untraced_p50: float) -> dict:
    """The benchmark's per-layer metrics: per-op medians over the traced ops.

    ``statevector.peak_state_ratio`` is the median over the memory-probed
    builds; ``trace.overhead_frac`` compares the traced and untraced halves.
    """
    per_op = rec.per_op()

    def med(fn):
        return statistics.median(fn(s) for s in per_op) if per_op else 0.0

    def total(name):
        return med(lambda s: s["total"].get(name, 0.0))

    def calls(name):
        return med(lambda s: s["calls"].get(name, 0))

    def layer_self(layer):
        return med(lambda s: s["self"].get(layer, 0.0))

    def ns_per_amp(s):
        amps = s["work"].get(BUILD_SPAN, 0.0)
        return 1e9 * s["total"][BUILD_SPAN] / amps if amps else 0.0

    def statevector_calls(s):
        return sum(n for name, n in s["calls"].items() if name.startswith("statevector."))

    ratios = [peak / (16 * amps) for peak, amps in rec.build_peaks]
    values = {
        "statevector.build_s": (total(BUILD_SPAN), "s"),
        "statevector.build_ns_per_amp": (med(ns_per_amp), "ns"),
        "statevector.edge_gate_s": (total("statevector.apply_edge_gate"), "s"),
        "statevector.edge_gate_calls": (calls("statevector.apply_edge_gate"), "count"),
        "statevector.pauli_s": (total("statevector.pauli_expectation"), "s"),
        "statevector.pauli_calls": (calls("statevector.pauli_expectation"), "count"),
        "statevector.init_s": (total("statevector.init_product_state"), "s"),
        "statevector.peak_state_ratio": (statistics.median(ratios) if ratios else 0.0, "ratio"),
        "statevector.calls": (med(statevector_calls), "count"),
        "statevector.self_s": (layer_self("statevector"), "s"),
        "digraph.self_s": (layer_self("digraph"), "s"),
        "digraph.validate_calls": (calls("digraph.validate"), "count"),
        "entanglement.verify_s": (total("entanglement.verify_graph"), "s"),
        "entanglement.closed_form_s": (total("entanglement.ed_closed_form"), "s"),
        "entanglement.self_s": (layer_self("entanglement"), "s"),
        "suite.self_s": (layer_self("suite"), "s"),
        "cli.self_s": (layer_self("cli"), "s"),
        "bench.self_s": (layer_self("bench"), "s"),
        "trace.op_s_p50": (traced_p50, "s"),
        "trace.spans_per_op": (med(lambda s: s["spans"]), "count"),
        "trace.overhead_frac": (traced_p50 / untraced_p50 - 1.0, "ratio"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}
