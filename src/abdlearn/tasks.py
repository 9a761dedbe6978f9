"""Task wiring, synthetic data generation, file formats, and evaluation.

Four built-in tasks over digit sequences: cumulative sum, cumulative
product, the sorted-list concept, and permutation sort.  Each task bundles
the background clauses, abducible predicates, metarule subset, and body
pool that the induction engine needs, plus its digit range; what else a
task needs (class count, whether perception is pairwise) is derived from
those.  The abducibles' meaning lives in mil.Abducible alone: evaluation
runs a learned program on each abducible's ground reading.

A set of examples reaches the reasoning through assemble alone: it numbers
their items and builds one fact oracle over them, from a model or from the
truth sidecar.  EM, the benches and evaluation all read perception through
it; evaluate reads it once per call and runs every example on one ground
kb.  Labels meet the truth sidecar in truth_acc alone, whether perception
read them (reading) or the E-step abduced them.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .kb import Budget, KnowledgeBase, deduce, standard_kb
from .metarules import DEFAULT_LIBRARY, Metarule, Program, program_clauses
from .fd import ADD, EQC, MUL
from .mil import ABD_FACT, Abducible, GoalExample, InductionSetting, TableFacts, item_term
from .terms import Atom, Int, Term, Var, mk_list, proper_list_items
from .terms import unify  # unused: perfbench/spans.py wraps it here


class TaskError(ValueError):
    pass


# shared list primitives; permute/3 comes in as a native builtin
LIST_BK = """\
head([H|_], H).
tail([_|T], T).
empty([]).
"""


def ranks_descending(digits: Sequence[int]) -> "tuple[int, ...]":
    """1-based rank of each element when sorting from large to small."""
    return tuple(1 + sum(1 for d in digits if d > di) for di in digits)


def is_descending(digits: Sequence[int]) -> bool:
    """Whether no element is larger than the one before it."""
    return all(a >= b for a, b in zip(digits, digits[1:]))


@dataclass(frozen=True)
class Task:
    """Static description of one learning task.

    The target's shape says what kind of task it is: arity 1 is a yes/no
    concept over the list, arity 2 with a dyadic abducible is a ranking,
    and any other arity-2 target maps the list to a number.

    Derived, not set: dyadic (some abducible is the pair-fact kind, so
    perception is a pairwise relation and the digits of a sequence are
    distinct), n_classes (the digit span) and value_base (digit_lo, the
    digit class 0 encodes).
    """

    id: str
    target: "tuple[str, int]"
    y_of: "Callable[[Sequence[int]], object]"  # digits -> the example's label y
    bk_text: str
    abducibles: "tuple[Abducible, ...]"
    metarule_names: "tuple[str, ...]"
    body_pool: "tuple[tuple[str, int], ...]"
    max_clauses: int
    max_invented: int = 0
    digit_lo: int = 0
    digit_hi: int = 9

    @property
    def dyadic(self) -> bool:
        return any(a.kind == ABD_FACT for a in self.abducibles)

    @property
    def n_classes(self) -> int:
        return self.digit_hi - self.digit_lo + 1

    @property
    def value_base(self) -> int:
        return self.digit_lo

    def metarules(self, names: Optional[Sequence[str]] = None) -> "list[Metarule]":
        chosen = tuple(names) if names is not None else self.metarule_names
        missing = [n for n in chosen if n not in DEFAULT_LIBRARY]
        if missing:
            raise TaskError(f"unknown metarules: {', '.join(missing)}")
        return [DEFAULT_LIBRARY[n] for n in chosen]

    def setting(
        self,
        metarule_names: Optional[Sequence[str]] = None,
        extra_program: Optional[Program] = None,
    ) -> InductionSetting:
        """Fresh induction setting; extra_program installs interpreted
        clauses, its metasubs read through the default metarule library.

        The curriculum uses extra_program to make an earlier stage's
        definitions callable (and steppable by the meta-interpreter) while
        the new stage only searches over its own metarule instantiations.
        """
        kb = standard_kb(self.bk_text)
        if extra_program is not None:
            for clause in program_clauses(extra_program, DEFAULT_LIBRARY):
                kb.add_clause(clause)
        return InductionSetting(
            kb=kb,
            metarules=self.metarules(metarule_names),
            abducibles={(a.name, a.arity): a for a in self.abducibles},
            target=self.target,
            body_pool=list(self.body_pool),
            max_invented=self.max_invented,
        )

    def goal(self, item_ids: Sequence[int], y) -> GoalExample:
        items = mk_list([item_term(i) for i in item_ids])
        name, arity = self.target
        if arity == 1:
            return GoalExample(Atom(name, (items,)), positive=bool(y))
        if self.dyadic:
            out: Term = mk_list([Int(int(r)) for r in y])
        else:
            out = Int(int(y))
        return GoalExample(Atom(name, (items, out)), positive=True)


_TASKS = {
    t.id: t
    for t in (
        Task(
            id="sum",
            target=("f", 2),
            y_of=sum,
            bk_text=LIST_BK,
            abducibles=(Abducible("add", ADD), Abducible("eq", EQC)),
            metarule_names=("chain", "ident"),
            body_pool=(("head", 2), ("tail", 2), ("empty", 1), ("add", 2), ("eq", 2)),
            max_clauses=2,
        ),
        Task(
            id="product",
            target=("f", 2),
            y_of=math.prod,
            bk_text=LIST_BK,
            abducibles=(Abducible("mult", MUL), Abducible("eq", EQC)),
            metarule_names=("chain", "ident"),
            body_pool=(("head", 2), ("tail", 2), ("empty", 1), ("mult", 2), ("eq", 2)),
            max_clauses=2,
            digit_lo=1,
        ),
        Task(
            id="sorted_concept",
            target=("s", 1),
            y_of=is_descending,
            bk_text=LIST_BK,
            abducibles=(Abducible("nn", ABD_FACT),),
            metarule_names=("mono_rec", "mono_chain", "precon"),
            body_pool=(("tail", 2), ("empty", 1), ("nn", 1)),
            max_clauses=3,
            max_invented=1,
        ),
        # nn stays abducible but is deliberately NOT in the body pool: the
        # sort rule must go through the interpreted s/1 definition instead
        # of testing a single pair and calling it sorted.
        Task(
            id="bogosort",
            target=("f", 2),
            y_of=ranks_descending,
            bk_text=LIST_BK,
            abducibles=(Abducible("nn", ABD_FACT),),
            metarule_names=("tri_split",),
            body_pool=(("permute", 3), ("s", 1)),
            max_clauses=1,
        ),
    )
}
TASK_IDS = tuple(_TASKS)


def make_task(task_id: str) -> Task:
    task = _TASKS.get(task_id)
    if task is None:
        raise TaskError(f"unknown task {task_id!r}; expected one of {', '.join(TASK_IDS)}")
    return task


# ---------------------------------------------------------------------------
# Synthetic perception data
# ---------------------------------------------------------------------------


@dataclass
class SyntheticDigitGen:
    """Noisy vector renderings of digits with a fixed prototype per class.

    Prototypes are drawn once from the seed; instances add Gaussian noise
    and clip to [0, 1].  Ground-truth digits travel next to the features
    but are only ever used for metrics, never for training.
    """

    n_classes: int = 10
    dim: int = 8
    noise: float = 0.12  # cold supervised ceiling about 0.97 at this level
    seed: int = 0
    prototypes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_classes < 2 or self.dim < 1:
            raise TaskError("need at least two classes and one feature")
        if not self.noise >= 0.0:
            raise TaskError(f"noise must be non-negative, got {self.noise}")
        rng = np.random.default_rng(self.seed)
        self.prototypes = rng.uniform(0.1, 0.9, size=(self.n_classes, self.dim))

    def render(self, digits: "Sequence[int]", rng: np.random.Generator) -> np.ndarray:
        """One row per digit, in one draw: the noise is a single
        (len(digits), dim) block of normals, filled in row order from rng,
        so the rows are bit for bit those of one sample call per digit."""
        for d in digits:
            if not 0 <= d < self.n_classes:
                raise TaskError(f"digit {d} outside 0..{self.n_classes - 1}")
        x = rng.normal(0.0, self.noise, size=(len(digits), self.dim))
        x += self.prototypes[digits]
        return x.clip(0.0, 1.0, out=x)

    def sample(self, digit: int, rng: np.random.Generator) -> np.ndarray:
        return self.render([digit], rng)[0]


@dataclass
class SeqExample:
    """One sequence: item features, the target value, and hidden truth."""

    x: np.ndarray  # (n_items, dim)
    y: object  # int | bool | tuple[int, ...] depending on task
    truth: "Optional[tuple[int, ...]]" = None  # per-item digits, metrics only

    def __len__(self) -> int:
        return int(self.x.shape[0])


def _draw_digits(task: Task, length: int, rng: np.random.Generator) -> "list[int]":
    span = task.n_classes
    if task.dyadic:  # a ranking needs distinct digits
        if length > span:
            raise TaskError(
                f"cannot draw {length} distinct digits from {task.digit_lo}..{task.digit_hi}"
            )
        picks = rng.choice(span, size=length, replace=False)
    else:
        picks = rng.integers(0, span, size=length)
    return [int(p) + task.digit_lo for p in picks]


def few_shot_examples(
    examples: "Sequence[SeqExample]", n_classes: int, value_base: int = 0
):
    """One labeled item per class from ground-truth sidecars, for warm starts.

    Takes the first rendering of each class in dataset order so the pick is
    deterministic.  Classes missing from the data are an error: a warm start
    that never sees some digit is worse than none.
    """
    picked: "dict[int, np.ndarray]" = {}
    for ex in examples:
        if ex.truth is None:
            raise TaskError("few-shot seeding needs ground-truth digits")
        for row, digit in zip(np.asarray(ex.x), ex.truth):
            picked.setdefault(digit - value_base, row)
    if len(picked) < n_classes:
        raise TaskError(f"examples cover only {len(picked)}/{n_classes} classes")
    classes = sorted(picked)
    return np.stack([picked[c] for c in classes]), np.array(classes)


def gen_sequences(
    task: Task,
    n: int,
    lengths: "tuple[int, int]" = (2, 5),
    gen: Optional[SyntheticDigitGen] = None,
    seed: int = 0,
) -> "list[SeqExample]":
    """Draw n labelled sequences with lengths uniform over the given range.

    A yes/no concept task alternates positives (already in descending order)
    with negatives built as near-misses: one adjacent swap of a sorted sequence,
    or a reshuffle verified unsorted.

    Each sequence draws from one stream, in this order: its length, its
    digits (redrawn while a negative is too short), a negative's swap
    position or reshuffles, then one block of normal noise for all its
    items in row order (SyntheticDigitGen.render).
    """
    lo, hi = lengths
    if lo < 1 or hi < lo:
        raise TaskError(f"bad length range {lengths}")
    if gen is None:
        gen = SyntheticDigitGen(n_classes=task.n_classes, seed=seed)
    rng = np.random.default_rng(seed + 1013904223)  # stream distinct from prototype rng
    out: "list[SeqExample]" = []
    for i in range(n):
        length = int(rng.integers(lo, hi + 1))
        digits = _draw_digits(task, length, rng)
        if task.target[1] == 1:
            digits.sort(reverse=True)
            if i % 2 == 1:  # negative: break sortedness but stay close
                length = max(length, 2)
                while len(digits) < length:
                    digits = _draw_digits(task, length, rng)
                    digits.sort(reverse=True)
                if i % 4 == 1:
                    j = int(rng.integers(0, length - 1))
                    digits[j], digits[j + 1] = digits[j + 1], digits[j]
                else:
                    while is_descending(digits):
                        rng.shuffle(digits)
        y = task.y_of(digits)
        feats = gen.render([d - task.digit_lo for d in digits], rng)
        out.append(SeqExample(feats, y, tuple(digits)))
    return out


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------


def _format_y(y) -> str:
    if isinstance(y, bool):
        return "true" if y else "false"
    if isinstance(y, tuple):
        return ",".join(str(int(r)) for r in y)
    return str(int(y))


def _parse_y(task: Task, text: str):
    try:
        if task.target[1] == 1:
            if text not in ("true", "false"):
                raise ValueError(text)
            return text == "true"
        if task.dyadic:
            return tuple(int(t) for t in text.split(","))
        return int(text)
    except ValueError as e:
        raise TaskError(f"bad label field {text!r} for task {task.id}") from e


def labels_path_for(path: "str | Path") -> Path:
    return Path(str(path) + ".labels")


def save_dataset(examples: Sequence[SeqExample], task_id: str, path: "str | Path") -> None:
    """Write the TSV dataset plus the ground-truth digit sidecar.

    Line format: task, item count, per-item feature CSVs joined by ';',
    then the label.  The sidecar keeps one digit CSV per line and exists
    only so metrics can be computed later; nothing in training reads it.
    """
    path = Path(path)
    lines = []
    truths = []
    for ex in examples:
        feats = ";".join(",".join(f"{v:.8g}" for v in row) for row in ex.x)
        lines.append(f"{task_id}\t{len(ex)}\t{feats}\t{_format_y(ex.y)}")
        truths.append(",".join(str(d) for d in ex.truth) if ex.truth else "")
    path.write_text("\n".join(lines) + "\n")
    labels_path_for(path).write_text("\n".join(truths) + "\n")


def load_dataset(path: "str | Path", expect_task: Optional[str] = None):
    """Read a dataset file back; returns (task_id, examples).

    Ground-truth digits are attached when the sidecar file is present;
    a sidecar line must give one digit in the task's range per item.
    """
    path = Path(path)
    if not path.exists():
        raise TaskError(f"dataset file not found: {path}")
    truth_lines: "list[str] | None" = None
    sidecar = labels_path_for(path)
    if sidecar.exists():
        truth_lines = sidecar.read_text().splitlines()
    task: Optional[Task] = None
    examples: "list[SeqExample]" = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) != 4:
            raise TaskError(f"{path}:{lineno}: expected 4 tab-separated fields")
        tid, n_str, feats_str, y_str = parts
        if task is None:
            try:
                task = make_task(tid)
            except TaskError as e:
                raise TaskError(f"{path}:{lineno}: {e}") from None
        elif tid != task.id:
            raise TaskError(f"{path}:{lineno}: mixed task ids {task.id!r} and {tid!r}")
        try:
            n_items = int(n_str)
            rows = [
                np.array([float(v) for v in item.split(",")], dtype=np.float64)
                for item in feats_str.split(";")
            ]
        except ValueError as e:
            raise TaskError(f"{path}:{lineno}: bad feature field") from e
        if len(rows) != n_items:
            raise TaskError(f"{path}:{lineno}: length field says {n_items}, got {len(rows)} items")
        if len({r.shape[0] for r in rows}) != 1:
            raise TaskError(f"{path}:{lineno}: items have mixed feature widths")
        y = _parse_y(task, y_str)
        truth = None
        if truth_lines is not None and lineno - 1 < len(truth_lines) and truth_lines[lineno - 1]:
            where = f"{sidecar}:{lineno}"
            try:
                truth = tuple(int(t) for t in truth_lines[lineno - 1].split(","))
            except ValueError as e:
                raise TaskError(f"{where}: bad digit field") from e
            if len(truth) != n_items:
                raise TaskError(f"{where}: {len(truth)} digits for {n_items} items")
            if not all(task.digit_lo <= d <= task.digit_hi for d in truth):
                raise TaskError(f"{where}: digit outside {task.digit_lo}..{task.digit_hi}")
        examples.append(SeqExample(np.stack(rows), y, truth))
    if task is None:
        raise TaskError(f"{path}: empty dataset")
    if expect_task is not None and task.id != expect_task:
        raise TaskError(f"{path}: holds task {task.id!r}, expected {expect_task!r}")
    return task.id, examples


# ---------------------------------------------------------------------------
# Reading a set of examples, ground execution and metrics
# ---------------------------------------------------------------------------


def assemble(task: Task, examples: Sequence[SeqExample], model=None):
    """How a set of examples reaches the reasoning: (features, spans, facts).

    Items are numbered from 0 across the examples in order: spans[k] lists
    the ids of examples[k]'s items, and features stacks their rows by id.
    facts is one fact oracle over them: with a model, its reading
    (TableFacts.from_model, each example's items a group); with none, the
    truth sidecar's, each item's digit for certain and a pair held when its
    first digit is at least its second (TaskError if an example has none).
    """
    ends = itertools.accumulate(len(ex) for ex in examples)
    spans = [list(range(end - len(ex), end)) for ex, end in zip(examples, ends)]
    features = np.concatenate([ex.x for ex in examples], axis=0) if examples else np.zeros((0, 1))
    if model is not None:
        return features, spans, TableFacts.from_model(features, model, task.value_base, groups=spans)
    if any(ex.truth is None for ex in examples):
        raise TaskError("an example has no ground-truth digits")
    labels = {i: d for ex, ids in zip(examples, spans) for i, d in zip(ids, ex.truth)}
    facts = TableFacts.exact(labels, task.n_classes, task.value_base, pairs=lambda a, b: labels[a] >= labels[b])
    return features, spans, facts


def reading(task: Task, facts: TableFacts, ids: Sequence[int]):
    """The labels facts gives one example's items, in ExampleLabeling's
    form (item_labels, pair_facts): on a dyadic task each pair i < j of
    ids, held at probability 0.5 or above; on any other each item's most
    probable digit."""
    if task.dyadic:
        return (), tuple(((a, b), facts.pair_prob(a, b) >= 0.5) for a, b in itertools.combinations(ids, 2))
    return tuple([(i, facts.item_label(i)) for i in ids]), ()


def truth_acc(examples: Sequence[SeqExample], spans, readings) -> Optional[float]:
    """Share of the labels the examples' truth bears out, one
    (item_labels, pair_facts) reading per example: (item, digit) is right
    when it is the item's digit, ((i, j), held) when held says whether i's
    digit is at least j's.  Examples without truth are skipped; None when
    nothing was scored."""
    hits = total = 0
    for ex, ids, (items, pairs) in zip(examples, spans, readings):
        if ex.truth is None:
            continue
        truth = dict(zip(ids, ex.truth))
        hits += sum([truth[i] == d for i, d in items]) + sum([held == (truth[i] >= truth[j]) for (i, j), held in pairs])
        total += len(items) + len(pairs)
    return hits / total if total else None


def ground_kb(task: Task, program: Program, facts: Optional[TableFacts] = None) -> KnowledgeBase:
    """Executable kb: background + induced clauses, read through the
    default metarule library, + each abducible's ground reading
    (mil.Abducible.ground) with its lazy one, which on a dyadic task read
    the pair relation from facts.  The clause table is built once per
    (background, abducibles, program), and every kb of it shares the table
    and its store of permute's probes (KnowledgeBase.share); a probe that
    read a pair (facts.pair_reads) is not stored.
    """
    if task.dyadic and facts is None:
        raise TaskError(f"task {task.id} needs a pairwise relation to execute")
    clauses, probes = _clause_table(task.bk_text, task.abducibles, program)
    kb = standard_kb()
    kb.clauses = clauses
    for a in task.abducibles:
        kb.add_builtin(a.name, a.arity, a.ground(facts), a.ground(facts, lazy=True))
    return kb.share(probes, (lambda: 0) if facts is None else (lambda: facts.pair_reads))


@lru_cache(maxsize=64)
def _clause_table(bk_text: str, abducibles: "tuple[Abducible, ...]", program: Program) -> "tuple[dict, dict]":
    """ground_kb's clause table and probe store, for the 64 keys last met;
    the abducibles key the store, as the probes run their lazy readings."""
    kb = standard_kb(bk_text)
    for clause in program_clauses(program, DEFAULT_LIBRARY):
        kb.add_clause(clause)
    return kb.clauses, {}


@dataclass
class Metrics:
    n: int
    failures: int = 0
    acc: Optional[float] = None  # exact-match accuracy on y
    mae: Optional[float] = None
    log_mae: Optional[float] = None  # mean |ln(1+pred) - ln(1+true)|
    perm_acc: Optional[float] = None
    elem_acc: Optional[float] = None
    cls_acc: Optional[float] = None  # raw per-item classifier accuracy
    depth_cut: int = 0  # examples whose search the depth bound cut somewhere
    budget_exhausted: int = 0  # examples whose search ran out of nodes (max_nodes)


class Answer(NamedTuple):
    """One eval example as the program answered it: the example, its item
    ids, the answer (whether a concept held, else an int or a ranking's
    tuple of ints, None for anything else), the cuts of its search and,
    when a classifier read a numeric task's digits, the item labels the
    query ran on (reading's item_labels; None otherwise)."""

    ex: SeqExample
    ids: "list[int]"
    value: object
    depth_cut: bool
    exhausted: bool
    labels: "Optional[tuple[tuple[int, int], ...]]" = None


def _value(t: Term):
    """An Int's value, a proper list of Ints as a tuple of their values, else None."""
    if isinstance(t, Int):
        return t.value
    items = proper_list_items(t)
    return tuple(i.value for i in items) if items is not None and all(isinstance(i, Int) for i in items) else None


def answer_each(
    program: Program,
    task: Task,
    examples: Sequence[SeqExample],
    model=None,
    use_truth: bool = False,
    max_nodes: int = 500_000,
) -> "list[Answer]":
    """Run the program once on each example, in order.

    Perception is read once, through assemble (the truth sidecar under
    use_truth or with no model), and every query runs on one ground_kb: a
    numeric one lists the item labels reading gives, any other the item
    handles.  Each search gets max_nodes resolution steps and a depth bound
    that grows with the list (see kb).
    """
    if not examples:
        raise TaskError("evaluate needs at least one example")
    _, spans, facts = assemble(task, examples, None if use_truth else model)
    kb = ground_kb(task, program, facts)
    name, arity = task.target
    numeric = arity == 2 and not task.dyadic
    classified = numeric and model is not None and not use_truth
    out = Var("Y")
    answers = []
    for ex, ids in zip(examples, spans):
        labels = reading(task, facts, ids)[0] if numeric else None
        items = mk_list([Int(d) for _, d in labels] if numeric else [item_term(i) for i in ids])
        budget = Budget(max_nodes=max_nodes)
        sol = next(deduce(Atom(name, (items, out)[:arity]), kb, budget=budget), None)
        if arity == 1:
            value = sol is not None
        else:
            value = None if sol is None else _value(sol.apply(out))
        answers.append(Answer(ex, ids, value, budget.depth_hits > 0, budget.exhausted, labels if classified else None))
    return answers


def score(task: Task, answers: "Sequence[Answer]") -> Metrics:
    """Metrics of the answers, reduced in their order.

    A numeric answer that is not an int counts as the worst possible error
    for its length; a ranking that is not one scores zero on both
    whole-permutation and per-position accuracy.  cls_acc is truth_acc of
    the answers' item labels when a classifier read them.  depth_cut and
    budget_exhausted count the searches the depth bound cut or the node cap
    stopped.
    """
    n = len(answers)
    m = Metrics(n, depth_cut=sum(a.depth_cut for a in answers), budget_exhausted=sum(a.exhausted for a in answers))
    if task.target[1] == 1:
        m.acc = sum(a.value == bool(a.ex.y) for a in answers) / n
    elif task.dyadic:
        ranked = [(a.value, tuple(int(r) for r in a.ex.y)) for a in answers if isinstance(a.value, tuple)]
        m.failures = n - len(ranked)
        m.perm_acc = m.acc = sum(got == want for got, want in ranked) / n
        m.elem_acc = sum(sum(map(operator.eq, got, want)) / len(want) for got, want in ranked) / n
    else:
        errs = []
        for a in answers:
            y = int(a.ex.y)
            if isinstance(a.value, int):
                errs.append((abs(a.value - y), abs(math.log1p(a.value) - math.log1p(y))))
            else:
                top = task.y_of([task.digit_hi] * len(a.ex))
                errs.append((float(max(y, top - y)), max(math.log1p(y), math.log1p(top) - math.log1p(y))))
        m.failures = sum(not isinstance(a.value, int) for a in answers)
        m.acc = sum(a.value == int(a.ex.y) for a in answers) / n
        m.mae, m.log_mae = (float(np.mean(e)) for e in zip(*errs))
        if all(a.labels is not None for a in answers):
            m.cls_acc = truth_acc([a.ex for a in answers], [a.ids for a in answers], [(a.labels, ()) for a in answers])
    return m


def evaluate(
    program: Program,
    task: Task,
    examples: Sequence[SeqExample],
    model=None,
    use_truth: bool = False,
    max_nodes: int = 500_000,
) -> Metrics:
    """Run the program on perception output and score against labels: one
    read of perception and one ground kb per call (answer_each), the
    answers reduced by score."""
    return score(task, answer_each(program, task, examples, model, use_truth, max_nodes))
