"""Span tracing of abdlearn from outside the package.

The tracer replaces public functions of each layer with wrappers that open
a span on entry and close it on exit.  A span records its name, start,
end, the span open when it began (its parent) and the operation id the
benchmark set (one EM batch or one eval example).  Spans are kept in flat
arrays and written out once, after the run.

A layer's self time is the time its spans were open minus the time their
child spans were open, so the self times of all layers add up to the time
covered by the root spans.  Wrapping costs time of its own; the benchmark
reports it as traced minus untraced wall time of the same work.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("bench", "em", "mil", "fd", "kb", "terms", "perception", "tasks", "parser")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.names: "list[str]" = []
        self.layer_of: "list[int]" = []
        self._ids: "dict[str, int]" = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.op_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self._stack: "list[int]" = []
        self._child: "list[float]" = []
        self._open: "list[int]" = []
        self.incl_s: "list[float]" = []
        self.calls: "list[int]" = []
        self.self_s = [0.0] * len(LAYERS)
        self.counts: Counter = Counter()
        self.op = -1
        self.patches = Patches()

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(LAYERS.index(name.split(".", 1)[0]))
            self._open.append(0)
            self.incl_s.append(0.0)
            self.calls.append(0)
        return nid

    def enter(self, nid: int) -> int:
        sid = len(self.start_col)
        self.name_col.append(nid)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.op_col.append(self.op)
        self.end_col.append(0.0)
        self._stack.append(sid)
        self._child.append(0.0)
        self._open[nid] += 1
        self.start_col.append(time.perf_counter())
        return sid

    def exit(self, sid: int, nid: int) -> None:
        t = time.perf_counter()
        self.end_col[sid] = t
        dur = t - self.start_col[sid]
        self._stack.pop()
        self.self_s[self.layer_of[nid]] += dur - self._child.pop()
        if self._child:
            self._child[-1] += dur
        self._open[nid] -= 1
        self.incl_s[nid] += dur
        self.calls[nid] += 1

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    def total_ms(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.incl_s[nid] * 1e3

    def n_calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, outermost: bool = False, after=None) -> None:
        """Trace owner.attr as span `name`.

        With outermost, a call made while a span of the same name is open
        runs untraced, so recursion and layered helpers count once.
        after(args, kwargs, result) runs inside the span, for counters.
        """
        fn = getattr(owner, attr)
        nid = self.name_id(name)
        tr = self

        def traced(*args, **kwargs):
            if outermost and tr._open[nid]:
                return fn(*args, **kwargs)
            sid = tr.enter(nid)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, out)
                return out
            finally:
                tr.exit(sid, nid)

        self.patches.set(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str, on_close=None) -> None:
        """Trace a generator function; each resumption is one span.

        Time the consumer spends between resumptions is not the
        generator's, so it is left out.  on_close(args, kwargs) runs once
        the generator is exhausted or closed.
        """
        fn = getattr(owner, attr)
        nid = self.name_id(name)
        tr = self

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    sid = tr.enter(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tr.exit(sid, nid)
                    yield item
            finally:
                gen.close()
                if on_close is not None:
                    on_close(args, kwargs)

        self.patches.set(owner, attr, traced)

    # -- output --------------------------------------------------------------

    def self_ms(self) -> "dict[str, float]":
        return {layer: s * 1e3 for layer, s in zip(LAYERS, self.self_s)}

    def write_spans(self, path: Path) -> int:
        """Write every span as one row of a gzipped CSV; returns the row count."""
        t0 = self.start_col[0] if len(self.start_col) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,parent,op,start_us,end_us\n")
            names = self.names
            for sid in range(len(self.start_col)):
                fh.write(
                    f"{sid},{names[self.name_col[sid]]},{self.parent_col[sid]},"
                    f"{self.op_col[sid]},{(self.start_col[sid] - t0) * 1e6:.1f},"
                    f"{(self.end_col[sid] - t0) * 1e6:.1f}\n"
                )
        return len(self.start_col)


class _Span:
    __slots__ = ("tr", "nid", "sid")

    def __init__(self, tr: Tracer, nid: int):
        self.tr, self.nid = tr, nid

    def __enter__(self):
        self.sid = self.tr.enter(self.nid)
        return self

    def __exit__(self, *exc):
        self.tr.exit(self.sid, self.nid)
        return False


def instrument(tr: Tracer) -> None:
    """Wrap the layer boundaries of abdlearn, as the package calls them.

    Functions are replaced in the namespace of the module that calls them
    (em calls mil.induce by the name em.induce, and so on).  Counters are
    read off the Budget objects the layers already fill.
    """
    from abdlearn import em, fd, kb, metarules, mil, tasks
    from abdlearn.perception import MLP, PairModel

    counts = tr.counts
    scored: Counter = Counter()  # examples scored per candidate of the current induce

    def after_induce(args, kwargs, out):
        runtime = kwargs["runtime"]
        counts["mil.nodes"] += runtime.nodes
        counts["fd.solver_nodes"] += runtime.solver_nodes
        counts["fd.solver_leaves"] += runtime.solver_leaves
        counts["mil.candidates_tried"] += out.candidates_tried
        counts["mil.budget_exhausted"] += int(out.budget_exhausted)
        n_examples = len(args[0])
        counts["mil.scored_full"] += sum(1 for n in scored.values() if n == n_examples)
        scored.clear()

    tr.wrap(em, "train", "em.train")
    tr.wrap(em, "run_curriculum", "em.run_curriculum")
    tr.wrap(em, "induce", "mil.induce", after=after_induce)
    tr.wrap(em, "m_step", "em.m_step")

    score_example = mil.score_example
    pos, neg = tr.name_id("mil.score"), tr.name_id("mil.score_neg")

    def traced_score(*args, **kwargs):
        nid = pos if args[0].positive else neg
        sid = tr.enter(nid)
        try:
            lab = score_example(*args, **kwargs)
            if lab is not None:
                scored[args[1].key()] += 1
            return lab
        finally:
            tr.exit(sid, nid)

    tr.patches.set(mil, "score_example", traced_score)

    tr.wrap(mil, "solve_best", "fd.solve_best")
    tr.wrap(mil, "_completion_exists", "fd.completion_exists")
    tr.wrap(fd.ConstraintStore, "propagate", "fd.propagate", outermost=True)
    tr.wrap(fd.ConstraintStore, "post", "fd.post", outermost=True)
    tr.wrap(fd.ConstraintStore, "clone", "fd.clone", outermost=True)

    for module in (mil, kb):
        tr.wrap(module, "unify", "terms.unify", outermost=True)
        tr.wrap(module, "unify_atoms", "terms.unify", outermost=True)
        tr.wrap(module, "rename_apart", "terms.rename_apart", outermost=True)
    tr.wrap(tasks, "unify", "terms.unify", outermost=True)

    def deduce_closed(args, kwargs):
        budget = kwargs["budget"]
        counts["kb.deduce_calls"] += 1
        counts["kb.nodes"] += budget.nodes
        counts["kb.depth_hits"] += budget.depth_hits

    tr.wrap_generator(tasks, "deduce", "kb.deduce", on_close=deduce_closed)
    tr.wrap(tasks, "standard_kb", "kb.standard_kb")
    tr.wrap(tasks, "evaluate", "tasks.evaluate")
    tr.wrap(tasks, "ground_kb", "tasks.ground_kb")
    tr.wrap(kb, "parse_program", "parser.parse_program")
    tr.wrap(metarules, "parse_program", "parser.parse_program")

    tr.wrap(MLP, "fit", "perception.fit", outermost=True)
    tr.wrap(PairModel, "fit_pairs", "perception.fit", outermost=True)
    tr.wrap(MLP, "log_probs", "perception.log_probs")
    tr.wrap(MLP, "predict_label", "perception.predict_label")
    tr.wrap(PairModel, "predict_pair", "perception.predict_pair")


def layer_metrics(tr: Tracer) -> "dict[str, tuple[float, str]]":
    """The per-layer metrics of one traced run: name -> (value, unit)."""
    c = tr.counts
    ms = tr.total_ms
    score_ms = ms("mil.score") + ms("mil.score_neg")
    tried = c["mil.candidates_tried"]
    out = {
        "mil.candidates_ms": (ms("mil.induce") - score_ms, "ms"),
        "mil.candidates_tried": (tried, "count"),
        "mil.score_ms": (ms("mil.score"), "ms"),
        "mil.score_neg_ms": (ms("mil.score_neg"), "ms"),
        "mil.scored_full_ratio": (c["mil.scored_full"] / tried if tried else 0.0, "ratio"),
        "mil.nodes": (c["mil.nodes"], "count"),
        "mil.budget_exhausted": (c["mil.budget_exhausted"], "count"),
        "fd.solve_best_ms": (ms("fd.solve_best"), "ms"),
        "fd.solve_best_calls": (tr.n_calls("fd.solve_best"), "count"),
        "fd.solver_nodes": (c["fd.solver_nodes"], "count"),
        "fd.solver_leaves": (c["fd.solver_leaves"], "count"),
        "fd.propagate_ms": (ms("fd.propagate"), "ms"),
        "fd.propagate_calls": (tr.n_calls("fd.propagate"), "count"),
        "kb.deduce_ms": (ms("kb.deduce"), "ms"),
        "kb.deduce_calls": (c["kb.deduce_calls"], "count"),
        "kb.nodes": (c["kb.nodes"], "count"),
        "kb.depth_hits": (c["kb.depth_hits"], "count"),
        "terms.unify_calls": (tr.n_calls("terms.unify"), "count"),
        "terms.unify_ms": (ms("terms.unify"), "ms"),
        "terms.rename_apart_calls": (tr.n_calls("terms.rename_apart"), "count"),
        "terms.rename_apart_ms": (ms("terms.rename_apart"), "ms"),
        "perception.fit_ms": (ms("perception.fit"), "ms"),
        "perception.log_probs_ms": (ms("perception.log_probs"), "ms"),
        "perception.predict_pair_calls": (tr.n_calls("perception.predict_pair"), "count"),
        "perception.predict_pair_ms": (ms("perception.predict_pair"), "ms"),
        "perception.predict_label_calls": (tr.n_calls("perception.predict_label"), "count"),
        "em.e_step_ms": (ms("mil.induce"), "ms"),
        "em.m_step_ms": (ms("em.m_step"), "ms"),
        "tasks.evaluate_ms": (ms("tasks.evaluate"), "ms"),
        "tasks.ground_kb_ms": (ms("tasks.ground_kb"), "ms"),
        "tasks.ground_kb_calls": (tr.n_calls("tasks.ground_kb"), "count"),
        "parser.parse_ms": (ms("parser.parse_program"), "ms"),
    }
    for layer, v in tr.self_ms().items():
        out[f"self_ms.{layer}"] = (v, "ms")
    return out
