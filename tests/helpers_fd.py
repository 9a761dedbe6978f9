"""Shared random-store generators, an independent numpy brute-force oracle
and solve_all, the exhaustive search solve_best is checked against.  A
generated store's tables are in its plan; tables_of gives solve_best's map.

Stores have the same shape the abducibles produce: each Add/Mul defines a
fresh derived variable from existing ones, and EqConst pins any variable.
That keeps the oracle a straight vectorized evaluation over the full grid
of weighted-variable assignments.  gen_random_store draws general DAGs;
gen_chain_store draws the chains the add/mul abducibles build.
"""

from __future__ import annotations

import numpy as np

from abdlearn.fd import (
    ADD,
    EQC,
    MUL,
    ConstraintStore,
    Labeling,
    _labeling_of,
    _lex_key,
    _pin_and_propagate,
    _search_completion,
)


def dump(store: ConstraintStore) -> str:
    """The store's constraints, one per line, for assertion messages:
    weighted vars read x<id>, derived ones v<id>."""

    def name(vid: int) -> str:
        return ("x" if store.vars[vid].is_weighted else "v") + str(vid)

    def text(c) -> str:
        if c.kind == EQC:
            return f"{name(c.x)}#={c.z}"
        return f"{name(c.x)}{'+' if c.kind == ADD else '*'}{name(c.y)}#={name(c.z)}"

    return "\n".join(text(c) for c in store.constraints)


def random_weight_table(rng: np.random.Generator, n: int = 10) -> np.ndarray:
    p = rng.dirichlet(np.ones(n) * 0.8)
    p = np.clip(p, 1e-9, None)
    p = p / p.sum()
    return np.log(p)


def gen_random_store(rng: np.random.Generator, max_weighted: int = 5, max_cons: int = 6):
    """Returns (store, plan) where plan drives the independent oracle.

    plan: (n_weighted, ops, eqcs) with ops a list of (kind, i, j) defining
    derived var n_weighted+t, and eqcs a list of (var_index, const).
    """
    store = ConstraintStore()
    k = int(rng.integers(1, max_weighted + 1))
    tables = [random_weight_table(rng) for _ in range(k)]
    for tab in tables:
        store.new_weighted_var(len(tab))
    ops: list = []
    eqcs: list = []
    n_vars = k
    budget = int(rng.integers(1, max_cons + 1))
    for _ in range(budget):
        if n_vars > k and rng.random() < 0.35:
            vid = int(rng.integers(0, n_vars))
            lo, hi = store.dom(vid).lo, store.dom(vid).hi
            # mostly feasible constants, sometimes not
            if rng.random() < 0.8:
                c = int(rng.integers(lo, hi + 1))
            else:
                c = int(rng.integers(0, max(2 * hi + 2, 4)))
            eqcs.append((vid, c))
            store.post_eq_const(vid, c)
        else:
            kind = "add" if rng.random() < 0.6 else "mul"
            i = int(rng.integers(0, n_vars))
            j = int(rng.integers(0, n_vars))
            di, dj = store.dom(i), store.dom(j)
            if kind == "add":
                z = store.new_derived_var(di.lo + dj.lo, di.hi + dj.hi)
                store.post(ADD, i, j, z)
            else:
                z = store.new_derived_var(di.lo * dj.lo, di.hi * dj.hi)
                store.post(MUL, i, j, z)
            ops.append((kind, i, j))
            n_vars += 1
    # ensure at least one anchor so solving is not vacuous
    if not eqcs and ops:
        vid = k + len(ops) - 1
        lo, hi = store.dom(vid).lo, store.dom(vid).hi
        if lo <= hi:
            c = int(rng.integers(lo, hi + 1))
            eqcs.append((vid, c))
            store.post_eq_const(vid, c)
    return store, (k, tables, ops, eqcs)


def _masked_table(rng: np.random.Generator, n: int = 10) -> np.ndarray:
    """Log table with some values at probability 0 (-inf), as TableFacts.exact gives."""
    if rng.random() < 0.5:
        out = np.full(n, -np.inf)
        out[int(rng.integers(0, n))] = 0.0
        return out
    p = rng.dirichlet(np.ones(n))
    p[rng.random(n) < 0.5] = 0.0
    if not p.any():
        p[int(rng.integers(0, n))] = 1.0
    p = p / p.sum()
    out = np.full(n, -np.inf)
    out[p > 0] = np.log(p[p > 0])
    return out


def gen_chain_store(
    rng: np.random.Generator,
    k: int,
    kind: str = "mixed",
    p_uniform: float = 0.2,
    p_masked: float = 0.2,
    max_consts: int = 2,
    p_peaked: float = 0.0,
):
    """A chain store over k weighted vars, and its plan for oracle_best.

    The chain folds its leaves left to right, one Add/Mul per leaf after
    the first: the weighted vars in id order with up to max_consts pinned
    constants mixed in.  kind is "add", "mul" or "mixed".  Tables are
    uniform (ties), partly -inf, peaked (0.9 on one value, the rest
    split evenly) or random.  EqConst pins the end var most
    of the time and now and then an intermediate or a leaf, mostly to the
    value a planted labeling gives it, otherwise to any value, so some pins
    are infeasible.  Weighted vars get ids 0..k-1 and each derived var k+t for
    plan op t, so the plan drives oracle_best unchanged; a constant is the
    op ("const", c, None).
    """
    store = ConstraintStore()
    tables = []
    for _ in range(k):
        r = rng.random()
        if r < p_uniform:
            tab = np.full(10, np.log(0.1))
        elif r < p_uniform + p_masked:
            tab = _masked_table(rng)
        elif r < p_uniform + p_masked + p_peaked:
            tab = np.full(10, np.log(0.1 / 9))
            tab[int(rng.integers(0, 10))] = np.log(0.9)
        else:
            tab = random_weight_table(rng)
        tables.append(tab)
        store.new_weighted_var(len(tab))
    ops: list = []
    eqcs: list = []

    def const(c: int) -> int:
        ops.append(("const", c, None))
        return store.new_derived_var(c, c)

    planted = [int(rng.choice(np.flatnonzero(np.isfinite(tab)))) for tab in tables]
    leaves: list = list(range(k))
    for _ in range(int(rng.integers(0, max_consts + 1))):
        leaves.insert(int(rng.integers(0, len(leaves) + 1)), None)
    value = {}  # chain var -> its value under the planted labels

    def leaf_var(token) -> int:
        if token is None:
            c = int(rng.integers(0, 4))
            vid = const(c)
            value[vid] = c
            return vid
        value[token] = planted[token]
        return token

    running = leaf_var(leaves[0])
    chain_vars = [running]
    for token in leaves[1:]:
        leaf = leaf_var(token)
        op = kind if kind != "mixed" else ("add" if rng.random() < 0.6 else "mul")
        dr, dl = store.dom(running), store.dom(leaf)
        a, b = (running, leaf) if rng.random() < 0.5 else (leaf, running)
        if op == "add":
            z = store.new_derived_var(dr.lo + dl.lo, dr.hi + dl.hi)
            store.post(ADD, a, b, z)
        else:
            z = store.new_derived_var(dr.lo * dl.lo, dr.hi * dl.hi)
            store.post(MUL, a, b, z)
        value[z] = value[running] + value[leaf] if op == "add" else value[running] * value[leaf]
        ops.append((op, a, b))
        running = z
        chain_vars += [leaf, z]

    def pin(vid: int) -> None:
        dom = store.dom(vid)
        r = rng.random()
        if r < 0.7:
            c = value[vid]  # satisfiable by the planted labels
        elif r < 0.85 and dom.lo <= dom.hi:
            c = int(rng.integers(dom.lo, min(dom.hi, dom.lo + 10**6) + 1))
        else:
            c = int(rng.integers(0, 2 * max(dom.hi, 1) + 2))
        eqcs.append((vid, c))
        store.post_eq_const(vid, c)

    if rng.random() < 0.3:
        pin(chain_vars[int(rng.integers(0, len(chain_vars)))])
    if rng.random() < 0.85:
        pin(running)
    return store, (k, tables, ops, eqcs)


def tables_of(plan) -> dict:
    """solve_best's table map for a generated store: weighted var t reads
    plan table t, as Python floats."""
    return {t: tuple(map(float, tab)) for t, tab in enumerate(plan[1])}


def _grid(plan):
    """Every var's value over the full 10^k grid of weighted-var
    assignments, in lexicographic var-id order, and which rows are feasible."""
    k, _, ops, eqcs = plan
    grids = np.meshgrid(*[np.arange(10)] * k, indexing="ij")
    vals = [g.reshape(-1) for g in grids]  # lexicographic enumeration
    for kind, i, j in ops:
        if kind == "const":
            vals.append(np.full(10**k, i))
        else:
            vals.append(vals[i] + vals[j] if kind == "add" else vals[i] * vals[j])
    feasible = np.ones(10**k, dtype=bool)
    for vid, c in eqcs:
        feasible &= vals[vid] == c
    return vals, feasible


def oracle_values(plan) -> "list[np.ndarray]":
    """Per var id, the values it takes over all solutions, weights aside."""
    vals, feasible = _grid(plan)
    return [v[feasible] for v in vals]


def oracle_best(plan):
    """Brute-force argmax over the full 10^k grid; None if infeasible.

    Enumerates assignments in lexicographic var-id order, so the first
    maximum is the lex-smallest tie, matching solve_best's tie-break.  A
    best score of -inf counts as infeasible, as in solve_best.
    """
    k, tables, _, _ = plan
    vals, feasible = _grid(plan)
    if not feasible.any():
        return None
    cols = vals[:k]
    score = np.zeros(10**k)
    for t in range(k):
        score += np.asarray(tables[t])[cols[t]]
    score = np.where(feasible, score, -np.inf)
    idx = int(np.argmax(score))  # first max = lex smallest assignment
    if score[idx] == -np.inf:
        return None
    assignment = {t: int(cols[t][idx]) for t in range(k)}
    # recompute in var-id order with python floats to match Labeling exactly
    log_prob = 0.0
    for t in range(k):
        log_prob += float(tables[t][assignment[t]])
    return assignment, log_prob


def solve_all(store: ConstraintStore, tables: dict, cap: int = 100000) -> "tuple[list[Labeling], bool]":
    """All feasible labelings sorted by descending log_prob; (list, truncated).

    Ties in log_prob are ordered by lexicographically smaller assignment, so
    the head always equals solve_best's answer.
    """
    if store.failed:
        return [], False
    root = store.clone()
    if not root.propagate():
        return [], False
    order = sorted(v.id for v in root.vars if v.is_weighted)
    out: list[Labeling] = []
    truncated = False

    def descend(st: ConstraintStore, level: int) -> bool:
        nonlocal truncated
        if level == len(order):
            if _search_completion(st, None):
                out.append(_labeling_of(st, tables))
                if len(out) >= cap:
                    truncated = True
                    return False
            return True
        vid = order[level]
        for val in st.vars[vid].dom.values():
            s2 = _pin_and_propagate(st, vid, val)
            if s2 is not None and not descend(s2, level + 1):
                return False
        return True

    descend(root, 0)
    out.sort(key=lambda lab: (-lab.log_prob, _lex_key(lab.assignment)))
    return out, truncated
