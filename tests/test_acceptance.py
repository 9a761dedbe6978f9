"""Twelve end-to-end acceptance checks, one test per criterion.

Every test prints a single ``ACCEPTANCE n: PASS/FAIL`` verdict line (echoed
again in the terminal summary) before asserting, so a failing criterion
still reports itself.  Seeds, datasets and training configs are frozen;
the rationale for each protocol lives with the training code's docstrings
and the test comments below.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import record
from helpers_fd import gen_random_store, oracle_best, tables_of

from abdlearn.bench import bench_abduction, bench_metarule_sizes
from abdlearn.em import EMConfig, run_curriculum, train
from abdlearn.fd import solve_best
from abdlearn.kb import deduce
from abdlearn.metarules import DEFAULT_LIBRARY, MetaSub, Program, program_text
from abdlearn.mil import GoalExample, SearchBudget, TableFacts, induce
from abdlearn.perception import MLP, PairModel, grad_check
from abdlearn.tasks import (
    SyntheticDigitGen,
    evaluate,
    gen_sequences,
    ground_kb,
    make_task,
)
from abdlearn.terms import Atom, Int, mk_list


def _verdict(n: int, ok: bool, msg: str) -> None:
    record(f"ACCEPTANCE {n:2d}: {'PASS' if ok else 'FAIL'} - {msg}")


def _int_goal(xs, y) -> Atom:
    return Atom("f", (mk_list([Int(int(x)) for x in xs]), Int(int(y))))


SUM_CANON = Program(
    (
        MetaSub("chain", (("P", "f"), ("Q", "add"), ("R", "f"))),
        MetaSub("ident", (("P", "f"), ("Q", "eq"))),
    )
)
PRODUCT_CANON = Program(
    (
        MetaSub("chain", (("P", "f"), ("Q", "mult"), ("R", "f"))),
        MetaSub("ident", (("P", "f"), ("Q", "eq"))),
    )
)


# ---------------------------------------------------------------------------
# 1. constraint solver vs brute force
# ---------------------------------------------------------------------------


def test_criterion_01_solver_matches_bruteforce_oracle():
    rng = np.random.default_rng(20260814)
    n_stores = 1000
    mismatches = []
    t0 = time.perf_counter()
    for i in range(n_stores):
        store, plan = gen_random_store(rng, max_weighted=5, max_cons=6)
        got = solve_best(store, tables_of(plan))
        want = oracle_best(plan)
        if want is None:
            if got is not None:
                mismatches.append((i, "solver found a labeling in an infeasible store"))
            continue
        assignment, log_prob = want
        if got is None:
            mismatches.append((i, "solver missed a feasible store"))
        elif got.assignment != assignment:
            mismatches.append((i, f"assignment {got.assignment} != {assignment}"))
        elif abs(got.log_prob - log_prob) > 1e-12:
            mismatches.append((i, f"score off by {abs(got.log_prob - log_prob):.2e}"))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 30.0
    _verdict(1, ok, f"{n_stores} random stores, {len(mismatches)} mismatches, {elapsed:.1f}s (limit 30s)")
    assert not mismatches, mismatches[:5]
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 2. entailment indicator on a 50-case golden table
# ---------------------------------------------------------------------------


def test_criterion_02_entailment_golden_table():
    # canonical spot checks first, then arithmetic-built cases up to 50
    cases = [
        ("sum", [1, 2, 3], 6, True),
        ("sum", [1, 2, 3], 7, False),
        ("product", [1, 2, 3], 6, True),
        ("product", [1, 2, 3], 7, False),
    ]
    rng = np.random.default_rng(99)
    while len(cases) < 50:
        if len(cases) % 2 == 0:
            xs = [int(d) for d in rng.integers(0, 10, size=rng.integers(1, 5))]
            y = sum(xs)
            neg = y + int(rng.integers(1, 4))
            cases.append(("sum", xs, y, True))
            cases.append(("sum", xs, neg, False))
        else:
            xs = [int(d) for d in rng.integers(1, 10, size=rng.integers(1, 5))]
            y = int(np.prod(xs))
            cases.append(("product", xs, y, True))
            cases.append(("product", xs, y + 1, False))
    cases = cases[:50]

    t0 = time.perf_counter()
    kbs = {
        "sum": ground_kb(make_task("sum"), SUM_CANON),
        "product": ground_kb(make_task("product"), PRODUCT_CANON),
    }
    wrong = []
    for task_id, xs, y, want in cases:
        got = next(deduce(_int_goal(xs, y), kbs[task_id]), None) is not None
        if got is not want:
            wrong.append((task_id, xs, y, want))
    elapsed = time.perf_counter() - t0
    ok = not wrong and elapsed < 1.0
    _verdict(2, ok, f"50-case golden table, {len(wrong)} wrong, {elapsed * 1e3:.0f}ms (limit 1s)")
    assert not wrong, wrong
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 3 + 5. induction from exact labels, then extrapolation on truth labels
# ---------------------------------------------------------------------------

_INDUCED: dict = {}


def _induced_program(task_id: str):
    """Induce once per task from 20 ground-integer examples and cache."""
    if task_id in _INDUCED:
        return _INDUCED[task_id]
    task = make_task(task_id)
    rng = np.random.default_rng(7 if task_id == "sum" else 8)
    examples = []
    for i in range(20):
        length = 1 if i < 4 else int(rng.integers(2, 5))
        xs = [int(d) for d in rng.integers(task.digit_lo, task.digit_hi + 1, size=length)]
        y = sum(xs) if task_id == "sum" else int(np.prod(xs))
        examples.append(GoalExample(_int_goal(xs, y)))
    t0 = time.perf_counter()
    out = induce(examples, task.setting(), TableFacts.exact(), SearchBudget(max_clauses=2))
    elapsed = time.perf_counter() - t0
    _INDUCED[task_id] = (out.induced, elapsed)
    return _INDUCED[task_id]


def test_criterion_03_induction_recovers_recursive_programs():
    sum_ind, sum_s = _induced_program("sum")
    prod_ind, prod_s = _induced_program("product")
    elapsed = sum_s + prod_s
    shape_ok = (
        sum_ind is not None
        and prod_ind is not None
        and sum_ind.program.size <= 2
        and prod_ind.program.size <= 2
        and sum_ind.program.key() == SUM_CANON.key()
        and prod_ind.program.key() == PRODUCT_CANON.key()
    )
    ok = shape_ok and elapsed < 60.0
    _verdict(3, ok, f"sum+product from 20 exact-label examples each, {elapsed:.1f}s (limit 60s)")
    assert sum_ind is not None and prod_ind is not None
    assert sum_ind.program.size <= 2 and prod_ind.program.size <= 2
    assert sum_ind.program.key() == SUM_CANON.key()
    assert prod_ind.program.key() == PRODUCT_CANON.key()
    assert elapsed < 60.0


def test_criterion_05_extrapolation_zero_error_on_truth_labels():
    sum_ind, _ = _induced_program("sum")
    prod_ind, _ = _induced_program("product")
    rows = []
    perfect = True
    for task_id, induced, lengths in (
        ("sum", sum_ind, (5, 10, 100)),
        ("product", prod_ind, (15,)),
    ):
        task = make_task(task_id)
        gen = SyntheticDigitGen(seed=3, n_classes=task.n_classes)
        for length in lengths:
            exs = gen_sequences(task, 30, lengths=(length, length), gen=gen, seed=length)
            m = evaluate(induced.program, task, exs, use_truth=True)
            rows.append(f"{task_id}@{length}: acc={m.acc:.2f} mae={m.mae:.2f}")
            perfect = perfect and m.failures == 0 and m.acc == 1.0 and m.mae == 0.0
    _verdict(5, perfect, "; ".join(rows))
    assert sum_ind is not None and prod_ind is not None
    assert perfect, rows


# ---------------------------------------------------------------------------
# 4. end-to-end EM on noisy synthetic digits
# ---------------------------------------------------------------------------


def _few_shot(gen: SyntheticDigitGen, seed: int):
    rng = np.random.default_rng(seed + 31337)
    X = np.stack([gen.sample(c, rng) for c in range(10)])
    return X, np.arange(10)


def test_criterion_04_em_reaches_accuracy_and_mae_targets():
    task = make_task("sum")
    gen = SyntheticDigitGen(seed=2)  # noise 0.12: cold supervised ceiling ~97%
    train_exs = gen_sequences(task, 300, lengths=(2, 5), gen=gen, seed=0)
    test_exs = gen_sequences(task, 200, lengths=(10, 10), gen=gen, seed=9999)
    results = []
    t0 = time.perf_counter()
    for em_seed in range(5):
        model = MLP(8, 10, hidden=64, lr=0.1, seed=em_seed)
        cfg = EMConfig(
            epochs=40,
            batch_size=32,
            m_epochs=6,
            lr_decay=0.90,
            seed=em_seed,
            pretrain=True,
            budget=SearchBudget(max_clauses=2),
        )
        st = train(task, train_exs, cfg, model=model, pretrain_data=_few_shot(gen, em_seed))
        m = evaluate(st.best_program, task, test_exs, model=model)
        results.append((em_seed, m.cls_acc, m.mae))
    elapsed = time.perf_counter() - t0
    wins = sum(1 for _, acc, mae in results if acc >= 0.90 and mae <= 1.0)
    ok = wins >= 4 and elapsed < 600.0
    detail = " ".join(f"s{s}:acc={a:.3f},mae={m:.2f}" for s, a, m in results)
    _verdict(4, ok, f"{wins}/5 seeds hit acc>=0.90 & mae<=1.0 in {elapsed:.0f}s (limit 600s); {detail}")
    assert wins >= 4, results
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 6. few-shot warm start plateaus strictly earlier than cold start
# ---------------------------------------------------------------------------


def _plateau_epoch(rows, epochs: int) -> int:
    """First 1-based epoch whose mean pseudo-label accuracy is >= 0.85;
    a run that never gets there is censored at epochs+1."""
    by_ep: dict = {}
    for r in rows:
        if r["pseudo_label_acc"] is not None:
            by_ep.setdefault(r["epoch"], []).append(r["pseudo_label_acc"])
    for ep in sorted(by_ep):
        if sum(by_ep[ep]) / len(by_ep[ep]) >= 0.85:
            return ep + 1
    return epochs + 1


def test_criterion_06_warm_start_plateaus_before_cold_start():
    task = make_task("sum")
    gen = SyntheticDigitGen(seed=2)
    train_exs = gen_sequences(task, 300, lengths=(2, 5), gen=gen, seed=0)
    epochs = 12
    pairs = []
    for seed in (0, 1, 2):
        plateaus = {}
        for warm in (True, False):
            model = MLP(8, 10, hidden=64, lr=0.1, seed=seed)
            cfg = EMConfig(
                epochs=epochs,
                batch_size=32,
                m_epochs=6,
                lr_decay=0.90,
                seed=seed,
                pretrain=warm,
                budget=SearchBudget(max_clauses=2),
            )
            st = train(
                task,
                train_exs,
                cfg,
                model=model,
                pretrain_data=_few_shot(gen, seed) if warm else None,
            )
            plateaus[warm] = _plateau_epoch(st.rows, epochs)
        pairs.append((seed, plateaus[True], plateaus[False]))
    ok = all(w < c for _, w, c in pairs)
    detail = " ".join(f"s{s}:warm={w},cold={c}" for s, w, c in pairs)
    _verdict(6, ok, f"plateau epochs (censored at {epochs + 1}); {detail}")
    assert ok, pairs


# ---------------------------------------------------------------------------
# 7. two-stage curriculum: sorted-check concept, then sorting by permutation
# ---------------------------------------------------------------------------


def test_criterion_07_curriculum_learns_sorting():
    t1 = make_task("sorted_concept")
    t2 = make_task("bogosort")
    gen = SyntheticDigitGen(seed=1, noise=0.04)  # low-noise digits
    # stage 1 must see singleton and pair positives or the concept search
    # can satisfy the sorted examples without the recursive shape
    ex1 = (
        gen_sequences(t1, 6, lengths=(1, 1), gen=gen, seed=10)
        + gen_sequences(t1, 4, lengths=(2, 2), gen=gen, seed=11)
        + gen_sequences(t1, 8, lengths=(3, 4), gen=gen, seed=12)
    )
    ex2 = gen_sequences(t2, 96, lengths=(2, 5), gen=gen, seed=20)
    pair = PairModel(8, seed=0, lr=0.1)
    cfg1 = EMConfig(epochs=5, batch_size=len(ex1), m_epochs=25, seed=0, budget=SearchBudget(max_clauses=3))
    cfg2 = EMConfig(epochs=10, batch_size=len(ex2), m_epochs=30, seed=0, budget=SearchBudget(max_clauses=1))
    t0 = time.perf_counter()
    s1, s2, merged = run_curriculum((t1, ex1, cfg1), (t2, ex2, cfg2), pair)
    test3 = gen_sequences(t2, 60, lengths=(3, 3), gen=gen, seed=90)
    test5 = gen_sequences(t2, 60, lengths=(5, 5), gen=gen, seed=91)
    m3 = evaluate(merged, t2, test3, model=pair)
    m5 = evaluate(merged, t2, test5, model=pair)
    elapsed = time.perf_counter() - t0

    n_invented = len(s1.best_program.invented) if s1.best_program else 0
    stage2_text = program_text(s2.best_program, DEFAULT_LIBRARY)
    reuses_s = "s(" in stage2_text
    ok = (
        len(ex1) < 20
        and n_invented == 1
        and reuses_s
        and m3.perm_acc >= 0.9
        and m5.elem_acc >= 0.9
        and elapsed < 900.0
    )
    _verdict(
        7,
        ok,
        f"{len(ex1)} stage-1 examples, {n_invented} invented pred, "
        f"perm@3={m3.perm_acc:.3f} elem@5={m5.elem_acc:.3f}, {elapsed:.0f}s (limit 900s)",
    )
    assert len(ex1) < 20
    assert n_invented == 1
    assert reuses_s, stage2_text
    assert m3.perm_acc >= 0.9
    assert m5.elem_acc >= 0.9
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
# 8. constraint-guided abduction explores fewer labelings than enumeration
# ---------------------------------------------------------------------------


def test_criterion_08_search_cost_ordering():
    task = make_task("sum")
    gen = SyntheticDigitGen(seed=0)
    warm_exs = gen_sequences(task, 120, lengths=(2, 4), gen=gen, seed=3)
    model = MLP(8, 10, hidden=32, lr=0.1, seed=0)
    cfg = EMConfig(epochs=1, batch_size=32, m_epochs=6, seed=0, budget=SearchBudget(max_clauses=2))
    train(task, warm_exs, cfg, model=model)  # one epoch: mid-training model

    bench_seqs = gen_sequences(task, 160, lengths=(4, 4), gen=gen, seed=77)
    batches = [bench_seqs[i : i + 8] for i in range(0, len(bench_seqs), 8)]
    rows = bench_abduction(task, batches, model)
    wins = sum(1 for r in rows if r.h_to_z < r.z_to_h)
    solved = all(r.solved for r in rows)
    ok = len(rows) >= 20 and wins == len(rows) and solved
    _verdict(8, ok, f"constraint search beat enumeration on {wins}/{len(rows)} length-4 batches")
    assert len(rows) >= 20
    assert solved
    assert wins == len(rows), [(r.batch, r.h_to_z, r.z_to_h) for r in rows if r.h_to_z >= r.z_to_h]


# ---------------------------------------------------------------------------
# 9. gradient check on every deployed layer shape
# ---------------------------------------------------------------------------


def test_criterion_09_gradient_check_on_deployed_shapes():
    rng = np.random.default_rng(0)
    errs = {}
    clf = MLP(8, 10, hidden=64, seed=0)  # digit classifier shape
    errs["classifier"] = grad_check(clf, rng.random((16, 8)), rng.integers(0, 10, 16), n_samples=48)
    pair = PairModel(8, seed=0)  # pairwise scorer shape (16 -> 2)
    errs["pair"] = grad_check(pair.net, rng.random((16, 16)), rng.integers(0, 2, 16), n_samples=48)
    worst = max(errs.values())
    ok = worst < 1e-4
    _verdict(9, ok, f"max relative gradient error {worst:.2e} (limit 1e-4)")
    assert worst < 1e-4, errs


# ---------------------------------------------------------------------------
# 10. pruning on/off parity on an exhaustive small-instance suite
# ---------------------------------------------------------------------------


def test_criterion_10_pruning_parity_small_instances():
    rng = np.random.default_rng(4242)
    checked = 0
    diffs = []
    for round_i in range(30):
        task_id = "sum" if round_i % 2 == 0 else "product"
        task = make_task(task_id)
        n_ex = int(rng.integers(1, 4))
        examples, tables = [], {}
        next_item = 0
        for _ in range(n_ex):
            length = int(rng.integers(1, 4))
            digits = [int(d) for d in rng.integers(task.digit_lo, task.digit_hi + 1, size=length)]
            ids = list(range(next_item, next_item + length))
            next_item += length
            for i, d in zip(ids, digits):
                p = rng.dirichlet(np.ones(task.n_classes))
                p[d - task.value_base] += 0.5  # bias toward the drawn digit
                tables[i] = (p / p.sum()).tolist()
            y = sum(digits) if task_id == "sum" else int(np.prod(digits))
            if rng.random() < 0.15:
                y += task.digit_hi * length + 1  # unprovable on purpose
            examples.append(task.goal(ids, y))
        facts = TableFacts(tables, value_base=task.value_base)
        on = induce(examples, task.setting(), facts, SearchBudget(max_clauses=2, pruning=True))
        off = induce(examples, task.setting(), facts, SearchBudget(max_clauses=2, pruning=False))
        checked += 1
        if (on.induced is None) != (off.induced is None):
            diffs.append((round_i, "solvability"))
        elif on.induced is not None:
            same = (
                on.induced.program.key() == off.induced.program.key()
                and on.induced.log_score == off.induced.log_score
                and on.induced.labelings == off.induced.labelings
            )
            if not same:
                diffs.append((round_i, "outcome"))
    ok = checked == 30 and not diffs
    _verdict(10, ok, f"{checked} batches (<=3 examples, lengths <=3), {len(diffs)} divergences")
    assert not diffs, diffs


# ---------------------------------------------------------------------------
# 11. metarule-count cost ordering
# ---------------------------------------------------------------------------


def test_criterion_11_metarule_count_node_ordering():
    task = make_task("sum")
    gen = SyntheticDigitGen(seed=1)
    exs = gen_sequences(task, 10, lengths=(2, 4), gen=gen, seed=7)
    rows = bench_metarule_sizes(task, exs, sizes=(2, 3, 9), budget=SearchBudget(max_clauses=2))
    n2, n3, n9 = (r.nodes for r in rows)
    ok = n2 < n3 <= n9
    _verdict(11, ok, f"worst-case search nodes by library size: {n2} < {n3} <= {n9}")
    assert n2 < n3 <= n9, (n2, n3, n9)


# ---------------------------------------------------------------------------
# 12. product learned from a cold start: raw sequences and y alone
# ---------------------------------------------------------------------------


def test_criterion_12_product_learns_from_a_cold_start():
    # criterion 4's data and settings, on product and with no warm start;
    # a product has no shift of two digits that keeps it, as a sum has
    task = make_task("product")
    gen = SyntheticDigitGen(seed=2)
    train_exs = gen_sequences(task, 300, lengths=(2, 5), gen=gen, seed=0)
    test_exs = gen_sequences(task, 200, lengths=(5, 5), gen=gen, seed=9999)
    results = []
    t0 = time.perf_counter()
    for em_seed in range(5):
        model = MLP(8, task.n_classes, hidden=64, lr=0.1, seed=em_seed)
        cfg = EMConfig(
            epochs=40,
            batch_size=32,
            m_epochs=6,
            lr_decay=0.90,
            seed=em_seed,
            budget=SearchBudget(max_clauses=2),
        )
        st = train(task, train_exs, cfg, model=model)
        m = evaluate(st.best_program, task, test_exs, model=model)
        results.append((em_seed, st.best_program.key() == PRODUCT_CANON.key(), m.cls_acc, m.acc))
    elapsed = time.perf_counter() - t0
    wins = sum(1 for _, canon, cls_acc, _ in results if canon and cls_acc >= 0.95)
    detail = " ".join(f"s{s}:{'canon' if c else 'other'},cls_acc={a:.3f},acc={y:.3f}" for s, c, a, y in results)
    _verdict(12, wins >= 4, f"{wins}/5 cold seeds hit the canonical program & cls_acc>=0.95 in {elapsed:.0f}s; {detail}")
    assert wins >= 4, results
