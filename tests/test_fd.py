import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_

from abdlearn import fd
from abdlearn import kb as kb_module
from abdlearn.fd import ADD, MUL, ConstraintStore, Dom, solve_best
from abdlearn.kb import Budget
from helpers_fd import (
    dump,
    gen_chain_store,
    gen_random_store,
    oracle_best,
    oracle_values,
    random_weight_table,
    solve_all,
    tables_of,
)


def digit_table(peak_value: int, peak_prob: float, n: int = 10):
    rest = (1.0 - peak_prob) / (n - 1)
    probs = [rest] * n
    probs[peak_value] = peak_prob
    return [math.log(p) for p in probs]


def uniform_table(n: int = 10):
    return [math.log(1.0 / n)] * n


def uniform(st: ConstraintStore) -> dict:
    """solve_best's table map with a uniform table for each weighted var of st."""
    return {v.id: uniform_table() for v in st.vars if v.is_weighted}


class TestDom:
    def test_range_and_values(self):
        d = Dom.range(0, 9)
        assert list(d.values()) == list(range(10))
        assert d.size() == 10

    def test_pin(self):
        d = Dom.range(0, 9).pin(4)
        assert d.pinned() == 4
        assert Dom.range(0, 9).pin(12).is_empty


class TestPostPropagate:
    def test_add_interval_oracle(self):
        # oracle: interval arithmetic [0+0, 9+9]
        st = ConstraintStore()
        x = st.new_weighted_var(10)
        y = st.new_weighted_var(10)
        n = st.new_derived_var(0, 100)
        assert st.post(ADD, x, y, n)
        assert (st.dom(n).lo, st.dom(n).hi) == (0, 18)

    def test_eq_const_narrows_operands(self):
        # oracle: brute-force filter, {v : exists w in 0..9, v+w=15} = 6..9
        expected = sorted({v for v in range(10) if any(v + w == 15 for w in range(10))})
        st = ConstraintStore()
        x = st.new_weighted_var(10)
        y = st.new_weighted_var(10)
        n = st.new_derived_var(0, 100)
        assert st.post(ADD, x, y, n)
        assert st.post_eq_const(n, 15)
        assert st.dom(n).pinned() == 15
        assert list(st.dom(x).values()) == expected
        assert list(st.dom(y).values()) == expected

    def test_infeasible_constant(self):
        st = ConstraintStore()
        x = st.new_weighted_var(10)
        y = st.new_weighted_var(10)
        n = st.new_derived_var(0, 18)
        assert st.post(ADD, x, y, n)
        assert not st.post_eq_const(n, 100)
        assert st.failed

    def test_mul_keeps_bounds_and_solves_exactly(self):
        # x*y=12 over 1..9: the values with support are the divisors
        # [2, 3, 4, 6]; propagation keeps their bounds, 5 stays in, and
        # solve_best still equals the numpy brute force
        tx = random_weight_table(np.random.default_rng(0), 9)
        ty = random_weight_table(np.random.default_rng(1), 9)
        st = ConstraintStore()
        x = st.new_weighted_var(9, base=1)
        y = st.new_weighted_var(9, base=1)
        z = st.new_derived_var(1, 81)
        assert st.post(MUL, x, y, z)
        assert st.post_eq_const(z, 12)
        assert st.dom(x) == st.dom(y) == Dom.range(2, 6)
        # value 0 is in the oracle's grid at probability 0, and 0*y is not 12
        tables = [np.r_[-np.inf, tx], np.r_[-np.inf, ty]]
        want = oracle_best((2, tables, [("mul", 0, 1)], [(2, 12)]))
        lab = solve_best(st, {x: tuple(map(float, tx)), y: tuple(map(float, ty))})
        assert (lab.assignment, lab.log_prob) == want

    def test_zero_sum_chain_pins_all(self):
        st = ConstraintStore()
        a = st.new_weighted_var(10)
        b = st.new_weighted_var(10)
        c = st.new_weighted_var(10)
        m = st.new_derived_var(0, 18)
        n = st.new_derived_var(0, 27)
        assert st.post(ADD, a, b, m)
        assert st.post(ADD, m, c, n)
        assert st.post_eq_const(n, 0)
        assert st.dom(a).pinned() == 0
        assert st.dom(b).pinned() == 0
        assert st.dom(c).pinned() == 0

    def test_no_constraints_store_unchanged(self):
        st = ConstraintStore()
        x = st.new_weighted_var(10)
        assert st.propagate()
        assert list(st.dom(x).values()) == list(range(10))

    def test_dump_notation(self):
        st = ConstraintStore()
        x0 = st.new_weighted_var(10)
        x1 = st.new_weighted_var(10)
        v2 = st.new_derived_var(0, 18)
        st.post(ADD, x0, x1, v2)
        st.post_eq_const(v2, 15)
        assert dump(st) == "x0+x1#=v2\nv2#=15"


class TestSolveBest:
    def test_two_digit_sum_example(self):
        # x=[a,b], y=3; 0.8 on a=1 and 0.7 on b=2 → {a=1,b=2}, ln(0.56)
        st = ConstraintStore()
        a = st.new_weighted_var(10)
        b = st.new_weighted_var(10)
        n = st.new_derived_var(0, 18)
        st.post(ADD, a, b, n)
        st.post_eq_const(n, 3)
        lab = solve_best(st, {a: digit_table(1, 0.8), b: digit_table(2, 0.7)})
        assert lab is not None
        assert lab.assignment == {a: 1, b: 2}
        assert lab.log_prob == pytest.approx(math.log(0.56), abs=1e-12)

    def test_stores_over_different_tables_have_equal_content(self):
        # the store holds no weights: x=[a,b], y=3 built for two examples
        # is one content, and each example's tables pick its own labeling
        def build(tables):
            st = ConstraintStore()
            xs = [st.new_weighted_var(len(t)) for t in tables]
            n = st.new_derived_var(0, 18)
            st.post(ADD, xs[0], xs[1], n)
            st.post_eq_const(n, 3)
            return st, dict(zip(xs, tables))

        first, t1 = build([digit_table(1, 0.8), digit_table(2, 0.7)])
        second, t2 = build([digit_table(3, 0.9), digit_table(0, 0.6)])
        assert first.content() == second.content()
        assert solve_best(first, t1).assignment == {0: 1, 1: 2}
        assert solve_best(first, t2).assignment == solve_best(second, t2).assignment == {0: 3, 1: 0}

    def test_forced_single_var(self):
        st = ConstraintStore()
        v = st.new_weighted_var(10)
        st.post_eq_const(v, 7)
        lab = solve_best(st, {v: digit_table(3, 0.9)})
        assert lab is not None and lab.assignment == {v: 7}

    def test_infeasible_returns_none(self):
        st = ConstraintStore()
        v = st.new_weighted_var(10)
        assert not st.post_eq_const(v, 42)
        assert solve_best(st, uniform(st)) is None

    def test_tie_breaks_lexicographically(self):
        # uniform weights: every feasible pair for x+y=3 ties; lex smallest wins
        st = ConstraintStore()
        a = st.new_weighted_var(10)
        b = st.new_weighted_var(10)
        n = st.new_derived_var(0, 18)
        st.post(ADD, a, b, n)
        st.post_eq_const(n, 3)
        lab = solve_best(st, uniform(st))
        assert lab.assignment == {a: 0, b: 3}

    def test_passed_deadline_stops_branch_and_bound_at_its_best_so_far(self, monkeypatch):
        # four free vars are not a chain, and under uniform tables every
        # labeling ties, so an uncut search reaches all 10^4 leaves.  The
        # clock passes the deadline at its 9th read: the making of the
        # budget and one read per node before it, the first leaf among them.
        # The search stops there, pinning no value after it
        st = ConstraintStore()
        xs = [st.new_weighted_var(10) for _ in range(4)]
        assert fd._chain_of(st) is None
        reads = iter(range(1, 1 << 20))
        monkeypatch.setattr(kb_module.time, "monotonic", lambda: 0.0 if next(reads) < 9 else 1.0)
        budget = Budget(wall_ms=5)
        lab = solve_best(st, uniform(st), budget)
        assert budget.exhausted and budget.solver_leaves < 10 and budget.solver_nodes < 10
        assert lab is not None and lab.assignment == {x: 0 for x in xs}
        assert lab.log_prob == 4 * math.log(0.1)

    def test_budget_out_before_first_labeling_reads_minus_inf_not_infeasible(self):
        # x0+x0#=v, v#=8 is not a chain: a budget already run out stops
        # branch-and-bound before any leaf
        st = ConstraintStore()
        x0 = st.new_weighted_var(10)
        v = st.new_derived_var(0, 18)
        st.post(ADD, x0, x0, v)
        st.post_eq_const(v, 8)
        assert fd._chain_of(st) is None
        assert solve_best(st, uniform(st)).assignment == {x0: 4}
        budget = Budget(max_nodes=0)
        assert not budget.tick()
        lab = solve_best(st, uniform(st), budget)
        assert budget.solver_leaves == 0
        assert lab is not None and lab.assignment == {} and lab.log_prob == -math.inf

    def test_exhausted_budget_reads_minus_inf_on_a_chain_too(self):
        st = ConstraintStore()
        x0 = st.new_weighted_var(10)
        x1 = st.new_weighted_var(10)
        st.post(ADD, x0, x1, st.new_derived_var(0, 18))
        assert fd._chain_of(st) is not None
        budget = Budget(max_nodes=0)
        assert not budget.tick()
        lab = solve_best(st, uniform(st), budget)
        assert lab is not None and lab.assignment == {} and lab.log_prob == -math.inf


class TestSolveAll:
    def test_pairs_summing_to_three(self):
        st = ConstraintStore()
        a = st.new_weighted_var(10)
        b = st.new_weighted_var(10)
        n = st.new_derived_var(0, 18)
        st.post(ADD, a, b, n)
        st.post_eq_const(n, 3)
        labs, truncated = solve_all(st, uniform(st))
        assert not truncated
        got = {(lab.assignment[a], lab.assignment[b]) for lab in labs}
        assert got == {(0, 3), (1, 2), (2, 1), (3, 0)}

    def test_eq_only_single(self):
        st = ConstraintStore()
        v = st.new_weighted_var(10)
        st.post_eq_const(v, 7)
        labs, _ = solve_all(st, uniform(st))
        assert len(labs) == 1 and labs[0].assignment == {v: 7}

    def test_cap_sets_truncated(self):
        st = ConstraintStore()
        st.new_weighted_var(10)
        st.new_weighted_var(10)
        labs, truncated = solve_all(st, uniform(st), cap=5)
        assert truncated and len(labs) == 5


class TestOracleEquivalence:
    def test_head_of_solve_all_equals_solve_best(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            store, plan = gen_random_store(rng, max_weighted=3, max_cons=4)
            best = solve_best(store, tables_of(plan))
            labs, _ = solve_all(store, tables_of(plan))
            if best is None:
                assert labs == []
            else:
                assert labs
                assert labs[0].assignment == best.assignment
                assert labs[0].log_prob == pytest.approx(best.log_prob, abs=1e-12)

    def test_matches_numpy_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            store, plan = gen_random_store(rng, max_weighted=3, max_cons=4)
            expected = oracle_best(plan)
            got = solve_best(store, tables_of(plan))
            if expected is None:
                assert got is None
            else:
                assignment, log_prob = expected
                assert got is not None
                assert got.assignment == assignment
                assert got.log_prob == pytest.approx(log_prob, abs=1e-12)

    def test_propagation_soundness(self):
        # no value removed by propagate participates in any brute-force solution
        rng = np.random.default_rng(13)
        for _ in range(30):
            store, plan = gen_random_store(rng, max_weighted=3, max_cons=4)
            k, tables, ops, eqcs = plan
            labs, _ = solve_all(store.clone(), tables_of(plan))
            surviving = {t: set() for t in range(k)}
            for lab in labs:
                for t in range(k):
                    surviving[t].add(lab.assignment[t])
            if store.failed:
                assert labs == []
                continue
            for t in range(k):
                domain_now = set(store.dom(t).values())
                assert surviving[t] <= domain_now

    def test_monotonicity_adding_constraint(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            store, plan = gen_random_store(rng, max_weighted=3, max_cons=3)
            before = solve_best(store.clone(), tables_of(plan))
            if before is None:
                continue
            vid = int(rng.integers(0, len(store.vars)))
            dom = store.dom(vid)
            c = int(rng.integers(dom.lo, dom.hi + 1)) if dom.lo <= dom.hi else 0
            store.post_eq_const(vid, c)
            after = solve_best(store, tables_of(plan))
            if after is not None:
                assert after.log_prob <= before.log_prob + 1e-12


# ---------------------------------------------------------------------------
# Chain stores: the max-product pass against the oracles
# ---------------------------------------------------------------------------


def _same(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return (got.assignment, got.log_prob) == (want.assignment, want.log_prob)


def _sweep_transitions(store: ConstraintStore, tables=None) -> int:
    """Transitions a full forward sweep of a chain store makes: every
    running value reachable from the head, combined with every value of the
    next leaf (with tables, every finite-weight one) that lands in the next
    var's domain."""
    head, links = fd._chain_of(store)

    def values(vid: int) -> list:
        var = store.vars[vid]
        if tables is None or not var.is_weighted:
            return list(var.dom.values())
        return [v for v in var.dom.values() if tables[vid][v - var.base] != -math.inf]

    layer, count = set(values(head)), 0
    for is_add, leaf, out in links:
        nxt = set()
        for s in layer:
            for d in values(leaf):
                t = s + d if is_add else s * d
                if store.dom(out).contains(t):
                    count += 1
                    nxt.add(t)
        layer = nxt
    return count


def _has_neg_inf(plan) -> bool:
    return any(np.isneginf(np.asarray(t)).any() for t in plan[1])


class TestChainStores:
    def test_generated_chains_take_the_chain_path(self):
        rng = np.random.default_rng(3)
        for i in range(200):
            store, _plan = gen_chain_store(rng, int(rng.integers(1, 9)), kind=("add", "mul", "mixed")[i % 3])
            if not store.failed:
                assert fd._chain_of(store) is not None, dump(store)

    @pytest.mark.parametrize("kind", ["add", "mul", "mixed"])
    def test_matches_numpy_bruteforce_up_to_six_vars(self, kind):
        rng = np.random.default_rng({"add": 21, "mul": 22, "mixed": 23}[kind])
        feasible = 0
        for k in (1, 2, 3, 4, 5, 6):
            for _ in range(40 if k < 6 else 8):
                store, plan = gen_chain_store(rng, k, kind=kind)
                want = oracle_best(plan)
                got = solve_best(store, tables_of(plan))
                if want is None:
                    assert got is None, dump(store)
                    assert not fd._completion_exists(store, None) or _has_neg_inf(plan)
                    continue
                feasible += 1
                assert got is not None, dump(store)
                assert (got.assignment, got.log_prob) == want, dump(store)
                assert fd._completion_exists(store, None)
        assert feasible >= 100

    @pytest.mark.parametrize("kind", ["add", "mul", "mixed"])
    def test_matches_branch_and_bound_up_to_twelve_vars(self, kind):
        rng = np.random.default_rng({"add": 31, "mul": 32, "mixed": 33}[kind])
        for k in range(7, 13):
            for _ in range(2):
                store, plan = gen_chain_store(rng, k, kind=kind, p_uniform=0.0)
                want = fd._branch_and_bound(store, tables_of(plan))
                assert _same(solve_best(store, tables_of(plan)), want), dump(store)
                assert fd._completion_exists(store, None) == fd._search_completion(store, None)

    def test_uniform_tables_break_ties_lexicographically(self):
        # x0+x1+x2 = 20 over uniform digits: lex-smallest is (2, 9, 9)
        st = ConstraintStore()
        xs = [st.new_weighted_var(10) for _ in range(3)]
        m = st.new_derived_var(0, 18)
        n = st.new_derived_var(0, 27)
        st.post(ADD, xs[0], xs[1], m)
        st.post(ADD, m, xs[2], n)
        st.post_eq_const(n, 20)
        lab = solve_best(st, uniform(st))
        assert lab.assignment == {xs[0]: 2, xs[1]: 9, xs[2]: 9}
        assert _same(lab, fd._branch_and_bound(st, uniform(st)))

    def test_near_tie_resolved_on_the_final_sums(self):
        # x0+x1+x2 = 1 leaves (1,0,0), (0,1,0) and (0,0,1).  After two vars
        # prefix (1,0) scores one rounding step above (0,1), yet both round
        # to the same total once x2=0 is added, so the lex-smaller (0,1,0)
        # must win, as when whole labelings are summed and compared.
        rows = [
            [0.4, 0.35, 0.05, 0.2, 0.35, 0.35, 0.4, 0.2, 0.2, 0.05],
            [0.4, 0.35, 0.05, 0.1, 0.2, 0.05, 0.4, 0.35, 0.35, 0.2],
            [0.4, 0.2, 0.05, 0.05, 0.3, 0.15, 0.2, 0.3, 0.4, 0.35],
        ]
        tables = [[math.log(v) for v in np.array(r) / np.sum(r)] for r in rows]
        w0, w1, w2 = tables
        if not (w0[1] + w1[0] > w0[0] + w1[1] and (w0[1] + w1[0]) + w2[0] == (w0[0] + w1[1]) + w2[0]):
            pytest.skip("this platform's log rounds the tables differently")
        st = ConstraintStore()
        xs = [st.new_weighted_var(len(t)) for t in tables]
        m = st.new_derived_var(0, 18)
        n = st.new_derived_var(0, 27)
        st.post(ADD, xs[0], xs[1], m)
        st.post(ADD, m, xs[2], n)
        st.post_eq_const(n, 1)
        want = oracle_best((3, tables, [("add", 0, 1), ("add", 3, 2)], [(4, 1)]))
        assert want[0] == {0: 0, 1: 1, 2: 0}
        lab = solve_best(st, dict(zip(xs, tables)))
        assert (lab.assignment, lab.log_prob) == want

    def test_out_of_order_chain_keeps_var_id_tie_break(self):
        # (x1+x2)+x0 = 1 over uniform digits: every solution ties, and the
        # lex-smallest in var-id order is x0=0, x1=0, x2=1
        st = ConstraintStore()
        x0, x1, x2 = (st.new_weighted_var(10) for _ in range(3))
        m = st.new_derived_var(0, 18)
        n = st.new_derived_var(0, 27)
        st.post(ADD, x1, x2, m)
        st.post(ADD, m, x0, n)
        st.post_eq_const(n, 1)
        assert solve_best(st, uniform(st)).assignment == {x0: 0, x1: 0, x2: 1}

    def test_infeasible_pin_returns_none(self):
        st = ConstraintStore()
        x0 = st.new_weighted_var(10)
        x1 = st.new_weighted_var(10)
        m = st.new_derived_var(0, 18)
        st.post(ADD, x0, x1, m)
        assert not st.post_eq_const(m, 19)
        assert solve_best(st, uniform(st)) is None
        assert not fd._completion_exists(st, None)

    def test_neg_inf_everywhere_feasible_returns_none(self):
        # the only sums that fit need a value of probability zero
        st = ConstraintStore()
        x0 = st.new_weighted_var(10)
        x1 = st.new_weighted_var(10)
        m = st.new_derived_var(0, 18)
        st.post(ADD, x0, x1, m)
        st.post_eq_const(m, 5)
        tables = {x0: [0.0] + [-math.inf] * 9, x1: [0.0] + [-math.inf] * 9}
        assert solve_best(st, tables) is None
        assert fd._branch_and_bound(st, tables) is None
        assert fd._completion_exists(st, None)  # feasibility ignores weights

    def test_weighted_var_without_a_finite_weight_returns_none(self):
        # x1's table is all -inf: no labeling scores above -inf
        st = ConstraintStore()
        x0 = st.new_weighted_var(10)
        x1 = st.new_weighted_var(10)
        m = st.new_derived_var(0, 18)
        st.post(ADD, x0, x1, m)
        tables = {x0: uniform_table(), x1: [-math.inf] * 10}
        assert fd._chain_of(st) is not None
        assert solve_best(st, tables) is None
        assert fd._branch_and_bound(st, tables) is None

    @pytest.mark.parametrize("holed", [False, True])
    @pytest.mark.parametrize("untied", [False, True])
    def test_long_sum_solves_in_transitions_linear_in_length(self, untied, holed):
        # A 128-item sum whose tables put 0.9 on a drawn digit and split the
        # rest evenly (peak) or by a Dirichlet(0.5) draw (untied): the
        # answer is the drawn digits, and the bound keeps about one
        # transition per link where a sweep makes some 360,000.  When the
        # last drawn digit has probability zero (holed), the greedy path
        # dead-ends at the last link and the search backs up to an
        # incumbent.
        n = 128
        rng = np.random.default_rng(5)
        digits = [int(d) for d in rng.integers(0, 10, size=n)]
        st = ConstraintStore()
        xs = [st.new_weighted_var(10) for _ in range(n)]
        tables = {}
        for x, d in zip(xs, digits):
            p = np.full(10, 0.1 / 9)
            if untied:
                p[np.arange(10) != d] = 0.1 * rng.dirichlet(np.full(9, 0.5))
            p[d] = 0.9
            tables[x] = [math.log(v) if v > 0 else -math.inf for v in p]
        running = xs[0]
        for x in xs[1:]:
            z = st.new_derived_var(0, st.dom(running).hi + 9)
            st.post(ADD, running, x, z)
            running = z
        st.post_eq_const(running, sum(digits))
        if holed:
            tables[xs[-1]][digits[-1]] = -math.inf
        budget = Budget()
        lab = solve_best(st, tables, budget)
        if holed:
            assert sum(lab.assignment.values()) == sum(digits) and lab.assignment[xs[-1]] != digits[-1]
            assert sum(v != d for v, d in zip(lab.assignment.values(), digits)) == 2
            assert budget.solver_nodes <= 100 * n
        else:
            assert lab.assignment == dict(zip(xs, digits))
            assert budget.solver_nodes <= 10 * n

    def test_counters(self):
        st = ConstraintStore()
        x0 = st.new_weighted_var(10)
        x1 = st.new_weighted_var(10)
        m = st.new_derived_var(0, 18)
        st.post(ADD, x0, x1, m)
        st.post_eq_const(m, 3)
        budget = Budget()
        solve_best(st, uniform(st), budget)
        # x0 in 0..3, x1 in 0..3: four transitions reach the pinned sum
        assert (budget.solver_nodes, budget.solver_leaves) == (4, 1)

    def test_chain_ignores_the_resolution_node_cap(self):
        # max_nodes binds resolution steps (Budget.tick), not solver nodes
        st = ConstraintStore()
        x0 = st.new_weighted_var(10)
        x1 = st.new_weighted_var(10)
        m = st.new_derived_var(0, 18)
        st.post(ADD, x0, x1, m)
        budget = Budget(max_nodes=1)
        lab = solve_best(st, uniform(st), budget)
        assert lab is not None and lab.assignment == {x0: 0, x1: 0}
        assert budget.solver_nodes > 1 and budget.ok()

    def test_non_chain_store_takes_branch_and_bound(self, monkeypatch):
        calls = []
        real = fd._branch_and_bound

        def spy(store, tables, budget=None):
            calls.append(store)
            return real(store, tables, budget)

        monkeypatch.setattr(fd, "_branch_and_bound", spy)
        # x0 consumed twice: x0+x0 = v1
        st = ConstraintStore()
        x0 = st.new_weighted_var(10)
        v = st.new_derived_var(0, 18)
        st.post(ADD, x0, x0, v)
        st.post_eq_const(v, 8)
        assert fd._chain_of(st) is None
        lab = solve_best(st, uniform(st))
        assert lab.assignment == {x0: 4} and len(calls) == 1
        # a chain store does not
        st2 = ConstraintStore()
        a = st2.new_weighted_var(10)
        b = st2.new_weighted_var(10)
        w = st2.new_derived_var(0, 18)
        st2.post(ADD, a, b, w)
        solve_best(st2, uniform(st2))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "build",
        [
            # two weighted vars, no constraint
            lambda st, w: None,
            # weighted vars consumed out of id order: x1, x2, x0, x3
            lambda st, w: (
                st.post(ADD, w[1], w[2], st.new_derived_var(0, 18)),
                st.post(ADD, 4, w[0], st.new_derived_var(0, 27)),
                st.post(ADD, 5, w[3], st.new_derived_var(0, 36)),
            ),
            # a chain beside weighted vars it does not consume
            lambda st, w: st.post(ADD, w[0], w[1], st.new_derived_var(0, 18)),
            # two separate chains
            lambda st, w: (
                st.post(ADD, w[0], w[1], st.new_derived_var(0, 18)),
                st.post(ADD, w[2], w[3], st.new_derived_var(0, 18)),
            ),
            # an intermediate consumed twice
            lambda st, w: (
                st.post(ADD, w[0], w[1], st.new_derived_var(0, 18)),
                st.post(ADD, 4, w[2], st.new_derived_var(0, 27)),
                st.post(ADD, 4, w[3], st.new_derived_var(0, 27)),
            ),
            # an unpinned free leaf
            lambda st, w: st.post(ADD, w[0], st.new_derived_var(0, 5), st.new_derived_var(0, 14)),
        ],
    )
    def test_shapes_that_are_not_chains(self, build):
        st = ConstraintStore()
        w = [st.new_weighted_var(10) for _ in range(4)]
        build(st, w)
        assert fd._chain_of(st) is None


def _table_from_counts(counts):
    total = sum(counts)
    return [math.log(c / total) if c else -math.inf for c in counts]


_counts = st_.lists(st_.integers(0, 3), min_size=10, max_size=10).filter(any)
_leaf = st_.one_of(
    st_.tuples(st_.just("w"), _counts),
    st_.tuples(st_.just("c"), st_.integers(0, 3)),
)


@settings(max_examples=150, deadline=None)
@given(
    leaves=st_.lists(_leaf, min_size=1, max_size=5).filter(lambda ls: any(t == "w" for t, _ in ls)),
    ops=st_.lists(st_.tuples(st_.booleans(), st_.booleans()), min_size=4, max_size=4),
    pins=st_.lists(st_.tuples(st_.integers(0, 9), st_.integers(0, 60)), max_size=2),
)
# Two labelings tie at -5.598421958998374; a bound summed in branching
# order rounded the lex-smaller one just below the incumbent and cut it.
@example(
    leaves=[
        ("w", [0, 0, 0, 0, 0, 0, 0, 1, 0, 2]),
        ("w", [0, 1, 2, 0, 0, 0, 0, 1, 3, 3]),
        ("w", [0, 0, 0, 0, 3, 3, 0, 0, 0, 3]),
        ("w", [0, 1, 0, 0, 0, 0, 0, 0, 2, 3]),
        ("w", [0, 0, 0, 0, 0, 0, 0, 0, 1, 0]),
    ],
    ops=[(False, False), (True, False), (False, False), (True, False)],
    pins=[(8, 26)],
)
def test_property_chain_pass_equals_branch_and_bound(leaves, ops, pins):
    st = ConstraintStore()
    tables = [_table_from_counts(arg) for t, arg in leaves if t == "w"]
    ws = [st.new_weighted_var(len(tab)) for tab in tables]
    ids = iter(ws)
    chain = []

    def leaf(t, arg):
        if t == "w":
            return next(ids)
        return st.new_derived_var(arg, arg)

    running = leaf(*leaves[0])
    chain.append(running)
    for (t, arg), (is_add, swap) in zip(leaves[1:], ops):
        other = leaf(t, arg)
        dr, dl = st.dom(running), st.dom(other)
        a, b = (other, running) if swap else (running, other)
        if is_add:
            z = st.new_derived_var(dr.lo + dl.lo, dr.hi + dl.hi)
            st.post(ADD, a, b, z)
        else:
            z = st.new_derived_var(dr.lo * dl.lo, dr.hi * dl.hi)
            st.post(MUL, a, b, z)
        chain += [other, z]
        running = z
    for pos, c in pins:
        st.post_eq_const(chain[pos % len(chain)], c)
    if not st.failed:
        assert fd._chain_of(st) is not None
    by_var = dict(zip(ws, tables))
    assert _same(solve_best(st, by_var), fd._branch_and_bound(st, by_var))
    assert fd._completion_exists(st, None) == (not st.failed and fd._search_completion(st, None))


_TABLE_MIXES = {  # (p_uniform, p_masked, p_peaked) for gen_chain_store
    "peaked": (0.0, 0.0, 1.0),
    "uniform": (1.0, 0.0, 0.0),
    "holed": (0.0, 1.0, 0.0),
    "mixed": (0.25, 0.25, 0.25),
}


@settings(max_examples=200, deadline=None)
@given(
    seed=st_.integers(0, 2**32 - 1),
    k=st_.integers(1, 5),
    kind=st_.sampled_from(["add", "mul", "mixed"]),
    mix=st_.sampled_from(sorted(_TABLE_MIXES)),
)
def test_property_bounded_chain_pass_is_exact(seed, k, kind, mix):
    """The bounded chain pass gives the brute-force answer, bit for bit,
    with no more transitions than a full sweep (exactly a sweep's on
    uniform tables), and the feasibility search agrees with the general
    completion search on no more transitions than a sweep."""
    rng = np.random.default_rng(seed)
    p_uniform, p_masked, p_peaked = _TABLE_MIXES[mix]
    store, plan = gen_chain_store(rng, k, kind=kind, p_uniform=p_uniform, p_masked=p_masked, p_peaked=p_peaked)
    if store.failed:
        return
    tables = tables_of(plan)
    budget = Budget()
    got = solve_best(store, tables, budget)
    want = oracle_best(plan)
    if want is None:
        assert got is None, dump(store)
    else:
        assert got is not None and (got.assignment, got.log_prob.hex()) == (want[0], want[1].hex()), dump(store)
    sweep = _sweep_transitions(store, tables)
    assert budget.solver_nodes <= sweep, dump(store)
    if mix == "uniform" and want is not None:
        assert budget.solver_nodes == sweep, dump(store)
    budget = Budget()
    assert fd._completion_exists(store, budget) == fd._search_completion(store, None), dump(store)
    assert budget.solver_nodes <= _sweep_transitions(store), dump(store)


def _greedy_path_dead_ends(store: ConstraintStore, tables: dict) -> bool:
    """Whether always taking the leaf's heaviest finite value (the smallest
    on a tie) that keeps the running var in its domain gets stuck before
    the end of the chain."""
    head, links = fd._chain_of(store)

    def ranked(vid: int) -> list:
        var = store.vars[vid]
        if not var.is_weighted:
            return [var.dom.lo]
        finite = [v for v in var.dom.values() if tables[vid][v - var.base] != -math.inf]
        return sorted(finite, key=lambda v: (-tables[vid][v - var.base], v))

    path = ranked(head)[:1]
    for is_add, leaf, out in links:
        if not path:
            break
        path = [t for t in (path[0] + d if is_add else path[0] * d for d in ranked(leaf)) if store.dom(out).contains(t)][:1]
    return not path


def test_holes_off_the_greedy_path_keep_the_pass_exact():
    rng = np.random.default_rng(41)
    backed_up = 0
    for i in range(300):
        store, plan = gen_chain_store(rng, int(rng.integers(2, 6)), kind=("add", "mul", "mixed")[i % 3], p_masked=0.7)
        if store.failed:
            continue
        tables = tables_of(plan)
        budget = Budget()
        got = solve_best(store, tables, budget)
        want = oracle_best(plan)
        assert (None if got is None else (got.assignment, got.log_prob)) == want, dump(store)
        assert budget.solver_nodes <= _sweep_transitions(store, tables), dump(store)
        backed_up += want is not None and _greedy_path_dead_ends(store, tables)
    assert backed_up >= 5


@settings(max_examples=200, deadline=None)
@given(seed=st_.integers(0, 2**32 - 1), chain=st_.booleans())
def test_property_propagation_keeps_every_solution(seed, chain):
    """Bounds propagation over ADD, MUL and EQC removes no value a
    brute-force solution takes, on any var, and a store post marked failed
    has no solution."""
    rng = np.random.default_rng(seed)
    if chain:
        store, plan = gen_chain_store(rng, int(rng.integers(1, 5)))
    else:
        store, plan = gen_random_store(rng, max_weighted=3, max_cons=5)
    taken = oracle_values(plan)
    if store.failed:
        assert all(len(vs) == 0 for vs in taken), dump(store)
        return
    for vid, vs in enumerate(taken):
        if len(vs):
            dom = store.dom(vid)
            assert dom.lo <= vs.min() and vs.max() <= dom.hi, (vid, dump(store))


def test_a_wide_open_derived_var_is_searched_not_assumed_feasible():
    """A non-chain store whose only open var is a free derived var of 5,000
    values: the completion search pins one of its values, however wide the
    domain, rather than take its bounds as a solution."""
    store = ConstraintStore()
    weighted = store.new_weighted_var(10)
    store.post_eq_const(weighted, 3)
    store.new_derived_var(0, 4999)
    assert fd._chain_of(store) is None
    budget = Budget()
    assert fd._completion_exists(store, budget)
    assert budget.solver_nodes >= 1
