"""Search-cost benchmarks: labeling search order and metarule count.

Two measurements. The first compares inducing a program and then abducing
labels through the constraint solver (H then z) against enumerating label
tuples by descending probability until one fits the arithmetic (z then H).
The two columns do not count the same work: h_to_z is solver_leaves summed
over every candidate program induce scores, while z_to_h counts the label
tuples tried under the task's true y_of only.  The second sweeps
metarule subsets of growing size and reports the search cost of inducing
the same program under each.

Both read their examples as training does, through tasks.assemble: items
numbered in order across the examples and one fact oracle over them, the
model's reading in the first and the truth sidecar's in the second.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .metarules import default_metarules
from .mil import SearchBudget, induce
from .tasks import SeqExample, Task, assemble


@dataclass
class AbductionBenchRow:
    batch: int
    h_to_z: int  # solver_leaves summed over every candidate program induce scored
    z_to_h: int  # label tuples tried, under the true y_of only, until each example fit
    solved: bool
    h_to_z_ms: float = 0.0
    z_to_h_ms: float = 0.0


@dataclass
class MetaruleBenchRow:
    n_rules: int
    names: "tuple[str, ...]"
    nodes: int  # resolution steps plus solver branch nodes
    solved: bool
    score: Optional[float]
    wall_ms: float = 0.0


def descending_assignments(logps: "list[np.ndarray]"):
    """Yield index tuples over the given rows in nonincreasing joint log-prob.

    Lazy best-first frontier over the product space; ties break on the
    index tuple so the order is deterministic.
    """
    order = [np.argsort(-row, kind="stable") for row in logps]
    sorted_l = [row[o] for row, o in zip(logps, order)]
    start = (0,) * len(logps)
    heap = [(-sum(row[0] for row in sorted_l), start)]
    seen = {start}
    while heap:
        neg, ranks = heapq.heappop(heap)
        yield tuple(int(order[i][r]) for i, r in enumerate(ranks)), -neg
        for i, r in enumerate(ranks):
            if r + 1 < len(sorted_l[i]):
                nxt = ranks[:i] + (r + 1,) + ranks[i + 1 :]
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(
                        heap, (neg + sorted_l[i][r] - sorted_l[i][r + 1], nxt)
                    )


def _tuples_until_feasible(task: Task, ex: SeqExample, logp_rows) -> int:
    """z-then-H cost for one example: tuples tried before the label fits."""
    tried = 0
    for classes, _ in descending_assignments(logp_rows):
        tried += 1
        digits = [c + task.value_base for c in classes]
        if task.y_of(digits) == ex.y:
            return tried
    return tried


def bench_abduction(
    task: Task,
    batches: "Sequence[Sequence[SeqExample]]",
    model,
    budget: Optional[SearchBudget] = None,
) -> "list[AbductionBenchRow]":
    """Both labeling orders on each batch, from one fact oracle per batch.

    The batch's facts (tasks.assemble) hold the classifier's item tables;
    induce abduces from them (H then z), and the enumeration ranks label
    tuples by the same tables (z then H).
    """
    budget = budget or SearchBudget(max_clauses=task.max_clauses)
    setting = task.setting()
    rows = []
    for bi, batch in enumerate(batches):
        _, spans, facts = assemble(task, batch, model)
        goals = [task.goal(ids, ex.y) for ex, ids in zip(batch, spans)]
        runtime = budget.runtime()
        t0 = time.perf_counter()
        out = induce(goals, setting, facts, budget, runtime=runtime)
        t1 = time.perf_counter()
        z_count = 0
        for ex, ids in zip(batch, spans):
            z_count += _tuples_until_feasible(
                task, ex, [np.asarray(facts.item_logweights(i)) for i in ids]
            )
        t2 = time.perf_counter()
        rows.append(
            AbductionBenchRow(
                batch=bi,
                h_to_z=runtime.solver_leaves,
                z_to_h=z_count,
                solved=out.induced is not None,
                h_to_z_ms=(t1 - t0) * 1e3,
                z_to_h_ms=(t2 - t1) * 1e3,
            )
        )
    return rows


def bench_metarules(
    task: Task,
    examples: "Sequence[SeqExample]",
    subsets: "Sequence[Sequence[str]]",
    budget: Optional[SearchBudget] = None,
) -> "list[MetaruleBenchRow]":
    """Induce from ground-truth facts under each metarule subset.

    Perception is taken out of the picture (tasks.assemble with no model:
    one-hot facts and the true pair order from the digit sidecar, a
    TaskError without it) so the rows isolate pure search cost.  A subset that cannot express the target program comes back
    unsolved rather than erroring.
    """
    budget = budget or SearchBudget(max_clauses=task.max_clauses)
    _, spans, facts = assemble(task, examples)
    goals = [task.goal(ids, ex.y) for ex, ids in zip(examples, spans)]
    rows = []
    for names in subsets:
        setting = task.setting(metarule_names=tuple(names))
        runtime = budget.runtime()
        t0 = time.perf_counter()
        out = induce(goals, setting, facts, budget, runtime=runtime)
        wall = (time.perf_counter() - t0) * 1e3
        rows.append(
            MetaruleBenchRow(
                n_rules=len(tuple(names)),
                names=tuple(names),
                nodes=runtime.nodes + runtime.solver_nodes,
                solved=out.induced is not None,
                score=out.induced.log_score if out.induced else None,
                wall_ms=wall,
            )
        )
    return rows


def bench_metarule_sizes(
    task: Task,
    examples: "Sequence[SeqExample]",
    sizes: "Sequence[int]" = (2, 3, 9),
    budget: Optional[SearchBudget] = None,
) -> "list[MetaruleBenchRow]":
    """Worst-case cost per subset size, always keeping the task's own rules.

    For each size we grow the task's minimal rule set with every combination
    of extra rules at that size and keep the most expensive run, so a lucky
    draw of distractors cannot flatter the small subsets.
    """
    core = task.metarule_names
    everything = tuple(r.name for r in default_metarules())
    extras = tuple(n for n in everything if n not in core)
    worst: "list[MetaruleBenchRow]" = []
    for size in sizes:
        if size < len(core) or size > len(everything):
            raise ValueError(f"subset size {size} out of range for {task.id}")
        variants = [
            core + combo for combo in itertools.combinations(extras, size - len(core))
        ]
        rows = bench_metarules(task, examples, subsets=variants, budget=budget)
        worst.append(max(rows, key=lambda r: r.nodes))
    return worst
