"""Joint training loop: abduce pseudo-labels, refit perception, repeat.

Hard-EM over batches.  The E-step induces one program per batch together
with the most probable consistent labelling of every item under the
current perception model; the M-step treats those labels as supervised
targets and takes a few gradient passes, warm-starting from the current
weights.  The best-scoring program seen so far is retained across batches
and epochs.

Perception is read once per batch, before the E-step, through
tasks.assemble: it numbers the batch's items and builds one mil.TableFacts
from the current model.  The E-step's abduction and the perception_acc
column read the same tables: one classifier forward per batch or, on a
dyadic task, one pair-net forward over every ordered pair inside each
example of the batch.  Both accuracy columns are tasks.truth_acc, of
tasks.reading of those tables and of the E-step's labelings.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .metarules import DEFAULT_LIBRARY, Program, merge_programs, program_text
from .mil import Induced, InductionSetting, SearchBudget, induce
from .perception import pretrain_few_shot
from .tasks import SeqExample, Task, assemble, reading, truth_acc

METRIC_COLUMNS = (
    "epoch",
    "batch",
    "score",
    "pseudo_label_acc",
    "perception_acc",
    "loss",
    "nodes_explored",
    "proofs_run",  # stored-proof lookups, one per proof mil runs, run from scratch (see mil)
    "proofs_replayed",  # and replayed from a stored proof of their shape
    "budget_exhausted",  # InduceOutcome.budget_exhausted: the batch's runtime ran out
    "depth_hits",  # the batch's runtime depth_hits: branches the depth bound cut
    "failure",  # InduceOutcome.failure, empty on solved batches
)


class EMError(RuntimeError):
    pass


@dataclass
class EMConfig:
    epochs: int = 10
    batch_size: int = 32
    m_epochs: int = 8
    m_batch: int = 32
    lr_decay: float = 1.0  # perception lr multiplier applied each epoch
    seed: int = 0
    budget: SearchBudget = field(default_factory=SearchBudget)
    pretrain: bool = False  # few-shot warm start before the first epoch
    metrics_path: Optional[Path] = None
    artifacts_dir: Optional[Path] = None


@dataclass
class EMState:
    """What training accumulated: the model plus the best program so far."""

    model: object
    best_program: Optional[Program] = None
    best_score: float = -math.inf
    rows: "list[dict]" = field(default_factory=list)


def m_step(task: Task, features, induced: Induced, model, m_epochs: int, m_batch: int) -> Optional[float]:
    """Refit perception on the abduced labels; returns the final loss.

    features holds the batch's rows by item id, as tasks.assemble stacks them.
    On a dyadic task the pair model fits each labeling's pair facts, an
    item pair (i, j) and its truth; on any other the classifier fits each
    item label.  Warm start: the model keeps its current weights and
    momentum, so each M-step is a few more passes, not training from
    scratch.
    """
    if task.dyadic:
        triples = []
        for lab in induced.labelings:
            for (a, b), val in lab.pair_facts:
                triples.append((features[a], features[b], bool(val)))
        if not triples:
            return None
        return model.fit_pairs(triples, epochs=m_epochs, batch_size=m_batch)
    X, y = [], []
    for lab in induced.labelings:
        for i, v in lab.item_labels:
            X.append(features[i])
            y.append(v - task.value_base)
    if not X:
        return None
    return model.fit(np.stack(X), np.array(y, dtype=int), epochs=m_epochs, batch_size=m_batch)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def train(
    task: Task,
    examples: Sequence[SeqExample],
    config: EMConfig,
    model=None,
    setting: Optional[InductionSetting] = None,
    pretrain_data=None,
) -> EMState:
    """Run hard-EM epochs over shuffled batches.

    model is the perception model the E-step reads and the M-step refits:
    a perception.PairModel on a dyadic task, an MLP on any other.  Every
    batch appends one metrics row.  Its perception_acc is read off the
    batch's fact oracle before the M-step, so it describes the model the
    E-step scored.  A batch whose E-step finds no program is skipped (no
    M-step); an epoch in which every batch fails aborts training, since
    nothing can improve.  With config.pretrain the classifier is first fit
    on pretrain_data, one labeled item per class, which breaks the
    cold-start label symmetry.
    """
    if not examples:
        raise EMError("no training examples")
    kind, reads = ("pairwise model", "predict_pairs") if task.dyadic else ("classifier", "log_probs")
    if not hasattr(model, reads):  # none given, or the other kind
        raise EMError(f"task {task.id} trains a {kind}, not {type(model).__name__}")
    if config.pretrain:
        if task.dyadic or pretrain_data is None:
            raise EMError("pretraining needs a classifier and (X, y) seed data")
        pretrain_few_shot(model, pretrain_data[0], pretrain_data[1])
    setting = setting or task.setting()
    state = EMState(model=model)
    rng = np.random.default_rng(config.seed)

    writer = None
    fh = None
    if config.metrics_path is not None:
        path = Path(config.metrics_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = path.open("w", newline="")
        writer = csv.writer(fh)
        writer.writerow(METRIC_COLUMNS)
    if config.artifacts_dir is not None:
        Path(config.artifacts_dir).mkdir(parents=True, exist_ok=True)

    try:
        for epoch in range(config.epochs):
            if epoch and config.lr_decay != 1.0:
                (model.net if task.dyadic else model).lr *= config.lr_decay
            order = rng.permutation(len(examples))
            batches = [
                [examples[i] for i in order[o : o + config.batch_size]]
                for o in range(0, len(order), config.batch_size)
            ]
            solved = 0
            for bi, batch in enumerate(batches):
                features, spans, facts = assemble(task, batch, model)
                goals = [task.goal(ids, ex.y) for ex, ids in zip(batch, spans)]
                runtime = config.budget.runtime()
                out = induce(goals, setting, facts, config.budget, runtime=runtime)
                nodes = runtime.nodes + runtime.solver_nodes
                pacc = truth_acc(batch, spans, [reading(task, facts, ids) for ids in spans])
                row = {
                    "epoch": epoch,
                    "batch": bi,
                    "score": None,
                    "pseudo_label_acc": None,
                    "perception_acc": pacc,
                    "loss": None,
                    "nodes_explored": nodes,
                    "proofs_run": runtime.proofs_run,
                    "proofs_replayed": runtime.proofs_replayed,
                    "budget_exhausted": int(out.budget_exhausted),
                    "depth_hits": runtime.depth_hits,
                    "failure": out.failure,
                }
                if out.induced is not None:
                    solved += 1
                    row["score"] = out.induced.log_score
                    labs = out.induced.labelings
                    row["pseudo_label_acc"] = truth_acc(batch, spans, [(lab.item_labels, lab.pair_facts) for lab in labs])
                    row["loss"] = m_step(task, features, out.induced, model, config.m_epochs, config.m_batch)
                    if out.induced.log_score > state.best_score:
                        state.best_score = out.induced.log_score
                        state.best_program = out.induced.program
                        if config.artifacts_dir is not None:
                            text = program_text(out.induced.program, DEFAULT_LIBRARY)
                            best = Path(config.artifacts_dir) / "program_best.pl"
                            best.write_text(text + "\n")
                state.rows.append(row)
                if writer is not None:
                    writer.writerow([_fmt(row[c]) for c in METRIC_COLUMNS])
                    fh.flush()
            if solved == 0:
                raise EMError(f"epoch {epoch}: every batch failed abduction")
    finally:
        if fh is not None:
            fh.close()
    return state


def run_curriculum(
    stage1: "tuple[Task, Sequence[SeqExample], EMConfig]",
    stage2: "tuple[Task, Sequence[SeqExample], EMConfig]",
    model,
) -> "tuple[EMState, EMState, Program]":
    """Two-stage schedule sharing one pairwise model, a perception.PairModel.

    Stage one learns the ordered-list concept; its program is then
    installed as interpreted background clauses so stage two can call (and
    step through) it while inducing the permutation-sort rule.  A stage
    that produces no program halts the schedule.
    """
    task1, ex1, cfg1 = stage1
    task2, ex2, cfg2 = stage2
    s1 = train(task1, ex1, cfg1, model)
    if s1.best_program is None:
        raise EMError(f"stage {task1.id} produced no program")
    setting2 = task2.setting(extra_program=s1.best_program)
    s2 = train(task2, ex2, cfg2, model, setting=setting2)
    if s2.best_program is None:
        raise EMError(f"stage {task2.id} produced no program")
    return s1, s2, merge_programs(s2.best_program, s1.best_program)
