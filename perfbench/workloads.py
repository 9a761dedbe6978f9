"""The three benchmark workloads and their correctness gates.

Each workload is a train-then-evaluate episode driven through the public
API: it builds its data and models from a seed (set-up), trains with
em.train or em.run_curriculum, then evaluates the induced program one
example at a time with tasks.evaluate.  A run repeats the episode on
several derived seeds.

Digit prototypes (the synthetic "font") are fixed per workload, as the
acceptance tests fix them; the seed draws the sequences, the rendering
noise, the model initialisation and the EM batch order.

Every episode is checked: the induced program must be the expected one, and
every eval answer must equal the task function of the digits the program
ran on, recomputed here without the program.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import abdlearn.em as em
from abdlearn.em import EMConfig
from abdlearn.metarules import MetaSub, Program, default_metarules, metarule_library, program_text
from abdlearn.mil import SearchBudget
from abdlearn.perception import MLP, PairModel, pretrain_few_shot
from abdlearn.tasks import SeqExample, SyntheticDigitGen, gen_sequences, make_task
from abdlearn.terms import Int, Struct, proper_list_items

LIBRARY = metarule_library(default_metarules())


def _program(*metasubs, invented=()) -> Program:
    return Program(tuple(MetaSub(rule, bindings) for rule, bindings in metasubs), invented)


_SUM_STEP = ("chain", (("P", "f"), ("Q", "add"), ("R", "f")))
# Two base cases induce with equal score: a singleton list, or the last pair.
SUM_PROGRAMS = {
    _program(_SUM_STEP, ("ident", (("P", "f"), ("Q", "eq")))).key(),
    _program(_SUM_STEP, ("chain", (("P", "f"), ("Q", "add"), ("R", "eq")))).key(),
}
SORTED_PROGRAM = _program(
    ("mono_rec", (("P", "s"), ("Q", "s_1"))),
    ("precon", (("P", "s_1"), ("Q", "nn"), ("R", "tail"))),
    ("mono_chain", (("P", "s"), ("Q", "tail"), ("R", "empty"))),
    invented=(("s_1", 2),),
).key()
SORT_PROGRAM = _program(("tri_split", (("P", "f"), ("Q", "permute"), ("R", "s")))).key()


@dataclass
class Episode:
    task: object
    model: object  # the model evaluate runs on
    eval_set: "list[SeqExample]"
    use_truth: bool
    train_items: int  # sequence items the EM phase processes, times epochs
    args: dict = field(default_factory=dict)  # what train() needs


def _items(examples) -> int:
    return sum(len(ex) for ex in examples)


def _shots(gen: SyntheticDigitGen, seed: int, per_class: int):
    """Labelled renderings, per_class of each digit, for the warm start."""
    rng = np.random.default_rng(seed)
    X = np.stack([gen.sample(c, rng) for c in range(gen.n_classes) for _ in range(per_class)])
    return X, np.repeat(np.arange(gen.n_classes), per_class)


def _canonical(prog: Program) -> Program:
    """The same clauses in a fixed order.

    EM keeps whichever clause order its search met first, and on long lists
    that order alone changes eval time up to threefold; eval runs the
    clauses in sorted order so that it measures the engine, not the draw.
    """
    return Program(tuple(sorted(prog.metasubs, key=lambda ms: (ms.rule, ms.bindings))), prog.invented)


def _seeds(seed: int, n: int) -> "list[int]":
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


class SumWorkload:
    """Hard-EM on the sum task, then evaluate on longer sequences."""

    render_seed = 2  # digit prototypes of acceptance criterion 4

    def __init__(
        self,
        name,
        n_train,
        train_lengths,
        batch_size,
        epochs,
        m_epochs,
        lr,
        eval_lengths,
        use_truth,
        shots,
        eval_rounds,
        episodes,
    ):
        self.name = name
        self.n_train = n_train
        self.train_lengths = train_lengths
        self.batch_size = batch_size
        self.epochs = epochs
        self.m_epochs = m_epochs
        self.lr = lr
        self.eval_lengths = eval_lengths  # (length, count) pairs
        self.use_truth = use_truth
        self.shots = shots  # labelled renderings per digit for the warm start
        self.eval_rounds = eval_rounds  # times the eval set is run; each example keeps its fastest
        self.episodes = episodes

    def setup(self, seed: int) -> Episode:
        s_train, s_eval, s_model = _seeds(seed, 3)
        task = make_task("sum")
        gen = SyntheticDigitGen(seed=self.render_seed)
        train = gen_sequences(task, self.n_train, lengths=self.train_lengths, gen=gen, seed=s_train)
        eval_set = []
        for i, (length, count) in enumerate(self.eval_lengths):
            eval_set += gen_sequences(task, count, lengths=(length, length), gen=gen, seed=s_eval + i)
        model = MLP(gen.dim, task.n_classes, hidden=64, lr=self.lr, seed=s_model % 2**31)
        X, y = _shots(gen, s_model, self.shots)
        if self.shots == 1:
            pretrain_few_shot(model, X, y)
        else:
            model.fit(X, y, epochs=200)
        cfg = EMConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            m_epochs=self.m_epochs,
            lr_decay=0.9,
            seed=s_model % 2**31,
            budget=SearchBudget(max_clauses=2),
        )
        return Episode(
            task,
            model,
            eval_set,
            self.use_truth,
            _items(train) * self.epochs,
            dict(examples=train, config=cfg, setting=task.setting()),
        )

    def train(self, ep: Episode) -> "tuple[Program, Optional[str]]":
        a = ep.args
        state = em.train(ep.task, a["examples"], a["config"], model=ep.model, setting=a["setting"])
        prog = state.best_program
        if prog is None or prog.key() not in SUM_PROGRAMS:
            text = program_text(prog, LIBRARY) if prog is not None else "(none)"
            return prog, f"induced program is not the recursive sum program: {text!r}"
        return _canonical(prog), None

    def check_answer(self, ep: Episode, ex: SeqExample, goal, sol) -> Optional[str]:
        items = proper_list_items(goal.args[0]) or []
        ran_on = [t.value for t in items if isinstance(t, Int)]
        if ep.use_truth:
            digits = list(ex.truth)
        else:
            digits = [int(ep.model.predict_label(row)) + ep.task.value_base for row in ex.x]
        if ran_on != digits:
            return f"eval ran on digits {ran_on}, perception gives {digits}"
        if sol is None:
            return None
        y = sol.apply(goal.args[1])
        if not isinstance(y, Int) or y.value != sum(digits):
            return f"sum of {digits} answered {y}, expected {sum(digits)}"
        return None

    def quality(self, ep: Episode, ex: SeqExample, m) -> "dict[str, tuple[float, float]]":
        """(value, weight) per quality metric for one eval example."""
        out = {"task_acc": (m.acc, 1.0), "test_mae": (m.mae, 1.0)}
        if ep.use_truth:
            labels = ep.model.predict_label(ex.x) + ep.task.value_base
            out["perception_acc"] = (float(np.mean(labels == np.array(ex.truth))), len(ex))
        else:
            out["perception_acc"] = (m.cls_acc, len(ex))
        return out


class SortWorkload:
    """The two-stage sorting curriculum, then evaluate at lengths 3 and 5."""

    name = "sort_curriculum"
    render_seed = 1  # digit prototypes of acceptance criterion 7
    noise = 0.04

    def __init__(self, eval_lengths, eval_rounds, episodes):
        self.eval_lengths = eval_lengths  # (length, count) pairs
        self.eval_rounds = eval_rounds
        self.episodes = episodes

    def setup(self, seed: int) -> Episode:
        s_data, s_eval, s_model = _seeds(seed, 3)
        t1, t2 = make_task("sorted_concept"), make_task("bogosort")
        gen = SyntheticDigitGen(seed=self.render_seed, noise=self.noise)
        # stage 1 needs singleton and pair positives to fix the recursive shape
        ex1 = (
            gen_sequences(t1, 6, lengths=(1, 1), gen=gen, seed=s_data)
            + gen_sequences(t1, 4, lengths=(2, 2), gen=gen, seed=s_data + 1)
            + gen_sequences(t1, 8, lengths=(3, 4), gen=gen, seed=s_data + 2)
        )
        ex2 = gen_sequences(t2, 96, lengths=(2, 5), gen=gen, seed=s_data + 3)
        eval_set = []
        for i, (length, count) in enumerate(self.eval_lengths):
            eval_set += gen_sequences(t2, count, lengths=(length, length), gen=gen, seed=s_eval + i)
        pair = PairModel(gen.dim, seed=s_model % 2**31, lr=0.1)
        cfg1 = EMConfig(epochs=5, batch_size=len(ex1), m_epochs=25, seed=s_model % 2**31, budget=SearchBudget(max_clauses=3))
        cfg2 = EMConfig(epochs=10, batch_size=len(ex2), m_epochs=30, seed=s_model % 2**31, budget=SearchBudget(max_clauses=1))
        return Episode(
            t2,
            pair,
            eval_set,
            False,
            _items(ex1) * cfg1.epochs + _items(ex2) * cfg2.epochs,
            dict(stage1=(t1, ex1, cfg1), stage2=(t2, ex2, cfg2)),
        )

    def train(self, ep: Episode) -> "tuple[Program, Optional[str]]":
        s1, s2, merged = em.run_curriculum(ep.args["stage1"], ep.args["stage2"], ep.model)
        if s1.best_program.key() != SORTED_PROGRAM or s2.best_program.key() != SORT_PROGRAM:
            return merged, f"induced program is not the sorting program: {program_text(merged, LIBRARY)!r}"
        return _canonical(merged), None

    @staticmethod
    def _sorted_rankings(ep: Episode, ex: SeqExample) -> "list[tuple[int, ...]]":
        """Every ranking that orders the items descending under the model."""
        n = len(ex)
        geq = {(a, b): ep.model.predict_pair(ex.x[a], ex.x[b]) >= 0.5 for a in range(n) for b in range(n) if a != b}
        out = []
        for ranks in itertools.permutations(range(1, n + 1)):
            placed = [0] * n
            for i, r in enumerate(ranks):
                placed[r - 1] = i
            if all(geq[a, b] for a, b in zip(placed, placed[1:])):
                out.append(ranks)
        return out

    @staticmethod
    def _ranks(sol, goal) -> "Optional[tuple[int, ...]]":
        if sol is None:
            return None
        items = proper_list_items(sol.apply(goal.args[1]))
        if items is None or not all(isinstance(t, Int) for t in items):
            return None
        return tuple(t.value for t in items)

    def check_answer(self, ep: Episode, ex: SeqExample, goal, sol) -> Optional[str]:
        items = proper_list_items(goal.args[0]) or []
        want_items = [Struct("item", (Int(i),)) for i in range(len(ex))]
        if items != want_items:
            return "eval goal does not list the example's items in order"
        valid = self._sorted_rankings(ep, ex)
        ranks = self._ranks(sol, goal)
        if ranks is None:
            return f"no ranking answered although {len(valid)} exist" if valid else None
        if ranks not in valid:
            return f"ranking {ranks} does not sort the items under the model"
        return None

    def quality(self, ep: Episode, ex: SeqExample, m) -> "dict[str, tuple[float, float]]":
        n = len(ex)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        hits = sum(
            (ep.model.predict_pair(ex.x[i], ex.x[j]) >= 0.5) == (ex.truth[i] >= ex.truth[j]) for i, j in pairs
        )
        return {"task_acc": (m.perm_acc, 1.0), "perception_acc": (hits / len(pairs), len(pairs))}


WORKLOADS = {
    w.name: w
    for w in (
        SumWorkload(
            "sum_em",
            n_train=300,
            train_lengths=(2, 5),
            batch_size=32,
            epochs=2,
            m_epochs=6,
            lr=0.1,
            eval_lengths=((10, 200),),
            use_truth=False,
            shots=1,
            eval_rounds=2,
            episodes=4,
        ),
        SumWorkload(
            "sum_long",
            n_train=64,
            # Above 9 items a batch now and then runs the solver ten times
            # longer than the median: too rare to average out within a run.
            train_lengths=(7, 9),
            batch_size=4,
            epochs=1,
            # Hard-EM labels on long sums are often wrong; criterion 4's six
            # passes at lr 0.1 wreck the model (accuracy 0.9 to 0.2) and with
            # it the solver's pruning, so EM time doubles at random.
            m_epochs=1,
            lr=0.02,
            # The default depth limit cuts a sum of more than about 256
            # items, so the last length fails in every episode.
            eval_lengths=tuple((length, 1) for length in range(20, 261, 20)),
            use_truth=True,
            # A one-shot start leaves the model so weak that solver work,
            # and so EM time, varies twofold from seed to seed.
            shots=5,
            eval_rounds=1,  # each eval runs long enough to average out host noise
            episodes=4,
        ),
        SortWorkload(eval_lengths=((3, 60), (5, 120)), eval_rounds=1, episodes=4),
    )
}
