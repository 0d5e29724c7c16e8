"""Spans and counts around calls into the program's modules.

The program is not instrumented; instead ``Tracer.installed()`` replaces
public functions with timing wrappers in the namespaces their callers look
them up in (``engine`` and ``bnb`` import their helpers by name), and puts
the originals back on exit.  Spans stay in memory, each with its parent, and
``write_jsonl`` saves them at the end of a run.

A layer's self time is the time its spans cover minus the time covered by
their child spans, so the self times of all layers, the harness included,
add up to the traced wall time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import boxplain.bnb as bnb
import boxplain.engine as engine
import boxplain.model as model
from boxplain.box import ShortcutResult

LAYERS = ("harness", "model", "engine", "encoding", "box", "bnb", "simplex")


def _shortcut_hit(tracer, result):
    tracer.counts["box.shortcut_hits"] += result is ShortcutResult.REMOVABLE


def _simplified(tracer, result):
    problem, stats = result
    tracer.counts["encoding.binaries_left"] += len(problem.binary_vids)
    tracer.counts["encoding.bounds_tightened"] += stats.bounds_tightened_count


def _nodes(key):
    def count(tracer, outcome):
        tracer.counts[key] += outcome.node_count
    return count


def _iterations(tracer, outcome):
    tracer.counts["simplex.iterations"] += outcome.iterations


# (namespace, attribute, layer, metric stem, extra counter on the result)
WRAPPED = (
    (model, "load_network", "model", "model.load", None),
    (model, "load_domain", "model", "model.load", None),
    (engine, "compute_tight_bounds", "engine", "engine.tight_bounds", None),
    (engine.Explainer, "explain", "engine", "engine.explain", None),
    (engine, "is_entailed", "engine", "engine.entail", None),
    (engine, "encode_network", "encoding", "encoding.encode", None),
    (engine, "encode_prefix", "encoding", "encoding.prefix", None),
    (engine, "tighten_and_simplify", "encoding", "encoding.simplify", _simplified),
    (engine, "fix_attributes", "encoding", "encoding.fix", None),
    (engine, "attach_rival_query", "encoding", "encoding.query", None),
    (engine, "box_propagate", "box", "box.propagate", None),
    (engine, "shortcut_check", "box", "box.shortcut", _shortcut_hit),
    (bnb, "solve_feasibility", "bnb", "bnb.feasibility", _nodes("bnb.feasibility_nodes")),
    (bnb, "optimize", "bnb", "bnb.optimize", _nodes("bnb.optimize_nodes")),
    (bnb, "milp_to_lp", "bnb", "bnb.to_lp", None),
    (bnb, "prepare", "simplex", "simplex.prepare", None),
    (bnb, "solve_prepared", "simplex", "simplex.solve", _iterations),
)

# metric names for each stem's call count; the rest are "<stem>_calls"
CALL_NAMES = {"box.shortcut": "box.shortcut_checks",
              "simplex.solve": "simplex.lp_solves"}


class Tracer:
    """Collects spans ``(id, parent, layer, name, start, end)`` and counts."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.busy = {}  # stem -> seconds inside its spans
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.wrapped_calls = {}  # "<owner>.<attribute>" -> calls
        self._stack = []  # [span id, layer, start, child seconds]

    def _open(self, layer, name):
        self._stack.append([len(self.spans), layer, time.perf_counter(), 0.0])
        self.spans.append(None)

    def _close(self, name):
        sid, layer, start, children = self._stack.pop()
        end = time.perf_counter()
        parent = self._stack[-1][0] if self._stack else None
        self.spans[sid] = (sid, parent, layer, name, start, end)
        if self._stack:
            self._stack[-1][3] += end - start
        self.self_time[layer] += end - start - children
        self.busy[name] = self.busy.get(name, 0.0) + end - start

    @contextmanager
    def span(self, name):
        """A root span of the harness around one operation."""
        self._open("harness", name)
        try:
            yield
        finally:
            self._close(name)

    def _wrap(self, original, label, layer, stem, extra):
        calls = CALL_NAMES.get(stem, stem + "_calls")
        self.wrapped_calls.setdefault(label, 0)

        def traced(*args, **kwargs):
            self._open(layer, stem)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(stem)
            self.counts[calls] = self.counts.get(calls, 0) + 1
            self.wrapped_calls[label] += 1
            if extra is not None:
                extra(self, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Route the program's calls through the tracer while active."""
        for key in ("box.shortcut_hits", "encoding.binaries_left",
                    "encoding.bounds_tightened", "bnb.feasibility_nodes",
                    "bnb.optimize_nodes", "simplex.iterations"):
            self.counts.setdefault(key, 0)
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in WRAPPED]
        try:
            for owner, attr, layer, stem, extra in WRAPPED:
                label = f"{owner.__name__}.{attr}"
                setattr(owner, attr,
                        self._wrap(owner.__dict__[attr], label, layer, stem, extra))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def silent(self) -> list[str]:
        """Wrapped functions that recorded no call while installed."""
        return sorted(label for label, calls in self.wrapped_calls.items() if not calls)

    def metrics(self) -> dict:
        """Per-layer counts, busy seconds, self seconds and ratios."""
        out = dict(self.counts)
        for stem, seconds in self.busy.items():
            out[stem + "_s"] = seconds
        for layer, seconds in self.self_time.items():
            out[layer + ".self_s"] = seconds
        ratios = (("simplex.iterations_per_solve", "simplex.iterations", "simplex.lp_solves"),
                  ("bnb.feasibility_nodes_per_call", "bnb.feasibility_nodes",
                   "bnb.feasibility_calls"),
                  ("bnb.optimize_nodes_per_call", "bnb.optimize_nodes", "bnb.optimize_calls"),
                  ("box.shortcut_hit_rate", "box.shortcut_hits", "box.shortcut_checks"))
        for name, num, den in ratios:
            if out.get(den):
                out[name] = out.get(num, 0) / out[den]
        return out

    def write_jsonl(self, path) -> None:
        keys = ("id", "parent", "layer", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
