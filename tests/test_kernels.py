"""Kernel-level checks: the closure matches a reachability search, the
inclusion order matches pairwise subset tests, the pointwise table order
matches inclusion of down-set rows, the enumerators emit exactly
the brute-force rows in their documented order (and the upset enumerator
the rows of the backtracking enumerator it replaced, within bounded work),
the cardinality certificates agree with the brute-force counts, the
stacked brute-force counters agree with per-pair and per-poset references
(and the counting law reports the first pair it breaks on), iso search
agrees with permutation search and gives the kept backtracker's witnesses,
and the monotonicity test (with `MonoMap` and the plain-iso check that
call it) agrees with a loop over every pair."""

import itertools
import time
import tracemalloc

import numpy as np
import pytest

from nufix import kernels, laws, mediator
from nufix.errors import DomainMismatch, NufixError, SearchBudgetExceeded
from nufix.posets import (
    FinPoset,
    MonoMap,
    all_posets_upto,
    chain,
    discrete,
    lift,
    validate_poset,
    with_declared_bottom,
)

from generators import (cycle_incidence, linear_extension, monotone_in_order, random_order,
                        relabelled, with_bottom, with_twins)
from generators import find_isomorphism as reference_isomorphism


def _reachability(rel):
    """Reflexive-transitive closure by depth-first search from each node."""
    n = len(rel)
    out = np.zeros((n, n), dtype=np.bool_)
    for i in range(n):
        todo = [i]
        while todo:
            k = todo.pop()
            if not out[i, k]:
                out[i, k] = True
                todo.extend(j for j in range(n) if rel[k][j])
    return out


def test_closure_matches_loop_reference():
    rng = np.random.RandomState(7)
    for _ in range(30):
        n = rng.randint(0, 9)
        rel = rng.rand(n, n) < 0.2
        out = kernels.transitive_closure(rel)
        assert out.dtype == np.bool_
        assert np.array_equal(out, _reachability(rel))


def _masks_with_inclusions(rng, k, w):
    """k random rows of width w; about half are copies of an earlier row
    with some bits cleared, so that many pairs are strict inclusions."""
    masks = np.zeros((k, w), dtype=np.bool_)
    for i in range(k):
        density = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0])
        masks[i] = rng.rand(w) < density
        if i and rng.rand() < 0.5:
            masks[i] &= masks[rng.randint(i)]
    return masks


def test_inclusion_order_matches_pairwise_subsets():
    rng = np.random.RandomState(11)
    for w in (0, 1, 63, 64, 65, 130):
        for k in (0, 1, 64, 65, 200):
            masks = _masks_with_inclusions(rng, k, w)
            sets = [set(np.flatnonzero(row).tolist()) for row in masks]
            want = np.array([[a <= b for b in sets] for a in sets], dtype=np.bool_)
            got = kernels.inclusion_order(masks)
            assert got.dtype == np.bool_ and got.shape == (k, k)
            assert np.array_equal(got, want.reshape(k, k)), (k, w)
            if k > 1 and w:
                assert 0 < got.sum() - k < k * (k - 1)


def down_set_order(tables, leq_cod):
    """Reference for `kernels.table_order`: t <= u pointwise iff the
    codomain down-set of t[p] lies inside that of u[p] at every p, so the
    order is the inclusion of the rows of down-sets."""
    k, n = tables.shape
    return kernels.inclusion_order(leq_cod.T[tables].reshape(k, n * len(leq_cod)))


def _tables_with_comparables(rng, k, n, leq_cod):
    """k random tables of width n into `leq_cod`; about half copy an earlier
    table with some values raised, so that many pairs are comparable."""
    tables = rng.randint(len(leq_cod), size=(k, n))
    for i in range(1, k):
        if rng.rand() < 0.5:
            row = tables[rng.randint(i)].copy()
            for p in np.flatnonzero(rng.rand(n) < 0.3):
                row[p] = rng.choice(np.flatnonzero(leq_cod[row[p]]))
            tables[i] = row
    return tables.astype(np.int32)


def test_table_order_matches_down_set_inclusion():
    rng = np.random.RandomState(17)
    bottomless = validate_poset(["a", "b", "c", "d", "e"],
                                [("a", "c"), ("b", "c"), ("c", "d"), ("b", "e")])
    cods = [chain(1), chain(4), bottomless, discrete("xyz")]
    strict = incomparable = 0
    for cod in cods:
        for k in (0, 1, 63, 64, 65, 130):
            for n in (1, 3, 7):
                tables = _tables_with_comparables(rng, k, n, cod.leq)
                got = kernels.table_order(tables, cod.leq)
                assert got.dtype == np.bool_ and got.shape == (k, k)
                assert np.array_equal(got, down_set_order(tables, cod.leq)), (len(cod), k, n)
                strict += int((got & ~got.T).sum())
                incomparable += int((~got & ~got.T).sum())
    assert strict > 0 and incomparable > 0
    # no positions: every table is the empty one; no codomain values
    for m in (0, 1):
        leq_cod = np.eye(m, dtype=np.bool_)
        for k in (0, 1, 3):
            tables = np.zeros((k, 0), dtype=np.int32)
            assert np.array_equal(kernels.table_order(tables, leq_cod),
                                  np.ones((k, k), dtype=np.bool_))
            assert np.array_equal(down_set_order(tables, leq_cod), np.ones((k, k)))
    empty = np.zeros((0, 4), dtype=np.int32)
    assert kernels.table_order(empty, np.zeros((0, 0), dtype=np.bool_)).shape == (0, 0)


def test_table_order_on_a_full_function_space():
    # a 6 -> 5 space of about 2000 monotone tables, the shape of the
    # benchmark's largest function spaces
    rng = np.random.RandomState(33)
    dom, cod = random_order(rng, 6, 0.25), random_order(rng, 5, 0.25)
    tables = kernels.enum_monotone_tables(dom, cod, 5 ** 6 + 1)
    assert 1500 <= len(tables) <= 2500
    got = kernels.table_order(tables, cod)
    assert np.array_equal(got, down_set_order(tables, cod))
    assert 0 < got.sum() - len(tables) < len(tables) * (len(tables) - 1)


def test_enumerator_positions_follow_the_linear_extension():
    rng = np.random.RandomState(19)
    ties = 0
    for _ in range(300):
        n = rng.randint(2, 13)
        leq = random_order(rng, n, rng.choice([0.0, 0.1, 0.3, 0.6]))
        ties += len(set(leq.sum(axis=0).tolist())) < n  # equal column sums
        assert kernels._linear_extension(leq.tolist()) == linear_extension(leq).tolist()
    assert kernels._linear_extension([]) == []
    assert ties > 250


def _upsets_in_order(leq):
    """Every up-closed subset by brute force, sorted along the
    fewest-above-first order with excluded before included."""
    n = len(leq)
    sets = [
        s for s in itertools.product((False, True), repeat=n)
        if all(s[j] for i in range(n) for j in range(n) if s[i] and leq[i, j])
    ]
    order = sorted(range(n), key=lambda e: int(leq[e].sum()))
    return sorted(sets, key=lambda s: [s[e] for e in order])


def _check_prefixes(enum, full):
    for limit in {1, len(full) // 2, len(full), len(full) + 1}:
        got = [tuple(row.tolist()) for row in enum(limit)]
        assert got == full[:limit]


def test_enumeration_edge_shapes():
    empty = np.zeros((0, 0), dtype=np.bool_)
    two = chain(2).leq
    cases = [
        (kernels.enum_monotone_tables(empty, two, 5), (1, 0), np.int32),
        (kernels.enum_monotone_tables(empty, two, 0), (0, 0), np.int32),
        (kernels.enum_monotone_tables(two, empty, 5), (0, 2), np.int32),
        (kernels.enum_monotone_tables(two, two, 0), (0, 2), np.int32),
        (kernels.enum_upsets(empty, 5), (1, 0), np.bool_),
        (kernels.enum_upsets(empty, 0), (0, 0), np.bool_),
        (kernels.enum_upsets(two, 0), (0, 2), np.bool_),
    ]
    for got, shape, dtype in cases:
        assert got.shape == shape and got.dtype == dtype


def count_monotone_bruteforce(leq_dom, leq_cod, strict_pair=None):
    """Reference for `kernels.count_monotone_stack`: one pair at a time,
    filtering the full |cod|**|dom| grid pair of positions by pair."""
    n = leq_dom.shape[0]
    m = leq_cod.shape[0]
    if n == 0:
        return 1
    if m == 0:
        return 0
    grids = np.indices((m,) * n).reshape(n, -1)
    keep = np.ones(grids.shape[1], dtype=np.bool_)
    for i in range(n):
        for j in range(n):
            if leq_dom[i, j]:
                keep &= leq_cod[grids[i], grids[j]]
    if strict_pair is not None:
        bd, bc = strict_pair
        keep &= grids[bd] == bc
    return int(keep.sum())


def test_count_monotone_stack_matches_the_per_pair_reference():
    shapes = all_posets_upto(4)
    pointed = [p for p in map(with_declared_bottom, shapes) if p is not None]
    for doms, strict in ((shapes, False), (pointed, True)):
        by_size = {}
        for p in doms:
            by_size.setdefault(len(p), []).append(p)
        for q in doms:
            for n, group in by_size.items():
                stack = np.array([p.leq for p in group], dtype=np.bool_).reshape(len(group), n, n)
                pair = ([p.bottom_idx for p in group], q.bottom_idx) if strict else None
                got = kernels.count_monotone_stack(stack, q.leq, pair)
                want = [count_monotone_bruteforce(
                    p.leq, q.leq, (p.bottom_idx, q.bottom_idx) if strict else None)
                    for p in group]
                assert got.tolist() == want, (n, q.leq)
    # an empty stack, and domains into the empty codomain
    empty = np.zeros((0, 0), dtype=np.bool_)
    assert kernels.count_monotone_stack(np.zeros((0, 2, 2), np.bool_), chain(2).leq).shape == (0,)
    assert kernels.count_monotone_stack(np.ones((3, 2, 2), np.bool_), empty).tolist() == [0] * 3
    assert kernels.count_monotone_stack(np.ones((2, 0, 0), np.bool_), empty).tolist() == [1] * 2


LAW_FAILURES = {
    ("plain", "drop"): ("monotone count 8 != 9", "(('e0', 'e1'), ('e0', 'e1', 'e2'))"),
    ("plain", "repeat"): ("monotone count 10 != 9", "(('e0', 'e1'), ('e0', 'e1', 'e2'))"),
    ("strict", "drop"): ("strict monotone count 2 != 3", None),
    ("strict", "repeat"): ("strict monotone count 4 != 3", None),
}


@pytest.mark.parametrize("side, mutation", sorted(LAW_FAILURES))
def test_enumeration_counts_law_reports_the_first_broken_pair(side, mutation, monkeypatch):
    # every 2-element domain into a 3-element codomain loses or repeats a
    # row; the law reports the first such pair of its walk
    enumerate_tables = kernels.enum_monotone_tables

    def broken(leq_dom, leq_cod, limit, strict=None):
        rows = enumerate_tables(leq_dom, leq_cod, limit, strict)
        if ((strict is not None) != (side == "strict")
                or (len(leq_dom), len(leq_cod)) != (2, 3)):
            return rows
        return rows[:-1] if mutation == "drop" else np.vstack([rows, rows[:1]])

    assert laws.law_enumeration_counts(3).ok
    monkeypatch.setattr(kernels, "enum_monotone_tables", broken)
    result = laws.law_enumeration_counts(3)
    detail, counterexample = LAW_FAILURES[side, mutation]
    assert (result.name, result.ok, result.detail, result.counterexample) == (
        "enumeration-counts", False, detail, counterexample)


@pytest.mark.parametrize("strict", [False, True])
def test_enumeration_counts_law_reports_a_broken_upset_count(strict, monkeypatch):
    # the law counts the upsets of every shape, then of every pointed shape
    # less its bottom; one call of either walk loses its last row
    shapes = all_posets_upto(3)
    broken_call = len(shapes) + 3 if strict else 4
    enumerate_upsets, calls = kernels.enum_upsets, []

    def broken(leq, limit):
        calls.append(leq)
        rows = enumerate_upsets(leq, limit)
        return rows[:-1] if len(calls) == broken_call else rows

    monkeypatch.setattr(kernels, "enum_upsets", broken)
    result = laws.law_enumeration_counts(3)
    want = count_upsets_bruteforce(calls[broken_call - 1])
    assert (result.ok, len(calls)) == (False, broken_call)
    if strict:
        assert (result.detail, result.counterexample) == (
            f"strict upset count {want - 1} != {want}", None)
    else:
        assert (result.detail, result.counterexample) == (
            f"upset count {want - 1} != {want}", repr(shapes[broken_call - 1].elements))


def test_monotone_enumeration_matches_bruteforce():
    shapes = all_posets_upto(3)
    for p in shapes:
        for q in shapes:
            cases = [None]
            pb, qb = with_declared_bottom(p), with_declared_bottom(q)
            if pb is not None and qb is not None:
                cases.append((pb.bottom_idx, qb.bottom_idx))
            for strict in cases:
                full = monotone_in_order(p.leq, q.leq, strict)
                if strict is None:
                    assert len(full) == count_monotone_bruteforce(p.leq, q.leq)
                _check_prefixes(
                    lambda k: kernels.enum_monotone_tables(p.leq, q.leq, k, strict), full
                )


def test_strict_enumeration_pins_a_bottom_at_any_index():
    # relabelled copies move each bottom off index 0, where the shapes of
    # `all_posets_upto` keep it
    rng = np.random.RandomState(5)
    pointed = [p.leq for p in map(with_declared_bottom, all_posets_upto(3)) if p is not None]
    moved = 0
    for dom in pointed:
        for cod in pointed:
            dom_r, cod_r = relabelled(rng, dom), relabelled(rng, cod)
            strict = tuple(int(np.flatnonzero(leq.all(axis=1))[0]) for leq in (dom_r, cod_r))
            moved += strict != (0, 0)
            _check_prefixes(lambda k: kernels.enum_monotone_tables(dom_r, cod_r, k, strict),
                            monotone_in_order(dom_r, cod_r, strict))
    assert moved > len(pointed) ** 2 // 2


def _frontier_calls(monkeypatch):
    """A list that counts the calls of `kernels._frontier` from now on."""
    calls, frontier = [], kernels._frontier

    def counting(*args):
        calls.append(args[4])  # what the call still needs
        return frontier(*args)

    monkeypatch.setattr(kernels, "_frontier", counting)
    return calls


# (backtracker allowance, block rows, block cells): the frontier from the
# first row or dead end on, with blocks of one prefix, three, or as many as
# eight cells allow; and the module's own constants
SWITCHES = [(0, 1, 1 << 16), (1, 3, 1 << 16), (5, 2048, 8), (40, 7, 1 << 16), (512, 2048, 1 << 16)]


def test_frontier_blocks_match_the_ordered_reference(monkeypatch):
    rng = np.random.RandomState(23)
    entered = _frontier_calls(monkeypatch)
    strict_cases = 0
    for _ in range(30):
        n, m = rng.randint(1, 8), rng.randint(1, 7)
        while m ** n > 20000:
            n -= 1
        dom = random_order(rng, n, rng.choice([0.0, 0.2, 0.5]))
        cod = random_order(rng, m, rng.choice([0.0, 0.3, 0.7]))
        strict = None
        if rng.rand() < 0.5:  # a bottom pair, or any pinned pair, which the
            strict = (rng.randint(n), rng.randint(m))  # frontier may reach later
            if rng.rand() < 0.5:
                dom, cod = with_bottom(dom, strict[0]), with_bottom(cod, strict[1])
            strict_cases += 1
        full = monotone_in_order(dom, cod, strict)
        for switch in SWITCHES:
            for name, value in zip(("_BACKTRACK_STEPS", "_BLOCK_ROWS", "_BLOCK_CELLS"), switch):
                monkeypatch.setattr(kernels, name, value)
            for limit in (1, 7, 100, m ** n + 1):
                got = kernels.enum_monotone_tables(dom, cod, limit, strict)
                want = np.array(full[:limit], dtype=np.int32).reshape(-1, n)
                assert got.dtype == np.int32 and got.shape == want.shape, (n, m, switch, limit)
                assert np.array_equal(got, want), (n, m, strict, switch, limit)
    assert strict_cases >= 8 and len(entered) > 200


def test_table_enumeration_raises_past_its_step_budget(monkeypatch):
    # a complete 6 -> 5 space of 2025 tables: the backtracker hands over
    # after 512 nodes, and the frontier tests 5 values per prefix
    dom, cod = random_order(np.random.RandomState(33), 6, 0.25), chain(5).leq
    full = kernels.enum_monotone_tables(dom, cod, 5 ** 6 + 1)
    entered = _frontier_calls(monkeypatch)
    monkeypatch.setattr(kernels, "TABLE_STEP_BUDGET", 10)
    with pytest.raises(SearchBudgetExceeded, match="table enumeration"):
        kernels.enum_monotone_tables(dom, cod, 5 ** 6 + 1)
    assert entered == []  # the backtracker's own steps ran past it
    monkeypatch.setattr(kernels, "TABLE_STEP_BUDGET", 1000)
    with pytest.raises(SearchBudgetExceeded, match="table enumeration"):
        kernels.enum_monotone_tables(dom, cod, 5 ** 6 + 1)
    assert len(entered) == 1  # the frontier's steps ran past it
    monkeypatch.setattr(kernels, "TABLE_STEP_BUDGET", 10 ** 6)
    assert np.array_equal(kernels.enum_monotone_tables(dom, cod, 5 ** 6 + 1), full)
    # a small call finishes inside the allowance, before any budget check
    monkeypatch.setattr(kernels, "TABLE_STEP_BUDGET", 1)
    assert len(kernels.enum_monotone_tables(dom[:2, :2], cod, 100)) > 1


def test_upset_enumeration_matches_bruteforce():
    for p in all_posets_upto(4):
        full = _upsets_in_order(p.leq)
        assert len(full) == count_upsets_bruteforce(p.leq)
        _check_prefixes(lambda k: kernels.enum_upsets(p.leq, k), full)


def backtrack_upsets(leq, limit):
    """Order reference for `kernels.enum_upsets`: the backtracking
    enumerator it replaced.  It decides the elements one at a time along the
    fewest-above-first order, excluded before included, and includes an
    element only when every element above it is in."""
    n, limit = leq.shape[0], int(limit)
    if n == 0:
        return np.zeros((min(limit, 1), 0), dtype=np.bool_)
    if limit == 0:
        return np.zeros((0, n), dtype=np.bool_)
    order = np.argsort(leq.sum(axis=1), kind="stable").tolist()
    bit = [1 << e for e in order]
    above = [sum(1 << j for j in range(n) if leq[e, j] and j != e) for e in order]
    inc = [0] * (n + 1)  # inclusion mask before deciding each position
    step = [0] * n  # 0: exclude next, 1: include next, 2: both tried
    masks = []
    pos = 0
    while pos >= 0:
        if pos == n:
            masks.append(inc[n])
            if len(masks) >= limit:
                break
            pos -= 1
            continue
        s = step[pos]
        if s == 0:
            step[pos] = 1
            inc[pos + 1] = inc[pos]
        elif s == 1 and not above[pos] & ~inc[pos]:
            step[pos] = 2
            inc[pos + 1] = inc[pos] | bit[pos]
        else:
            pos -= 1
            continue
        pos += 1
        if pos < n:
            step[pos] = 0
    return np.array([[(m >> i) & 1 for i in range(n)] for m in masks],
                    dtype=np.bool_).reshape(len(masks), n)


def test_upset_enumeration_matches_the_backtracking_reference():
    # plain grounds, and strict ones (a lift, relabelled, less its bottom,
    # as `strict_upsets` enumerates them), at limits cutting anywhere
    rng = np.random.RandomState(20)
    checked = 0
    for k in range(150):
        leq = random_order(rng, rng.randint(0, 21), rng.uniform(0.05, 0.6))
        full = kernels.count_upsets(leq, 4097)
        if full > 4096:
            continue  # keeps the reference fast; wide grounds are tested below
        lifted = lift(FinPoset([f"x{i}" for i in range(len(leq))], leq))
        perm = rng.permutation(len(lifted))
        bottom = int(np.flatnonzero(perm == lifted.bottom_idx)[0])
        strict = np.delete(np.delete(lifted.leq[np.ix_(perm, perm)], bottom, 0), bottom, 1)
        for ground in (leq, strict):
            for limit in (1, 7, full // 2, full, full + 1):
                got, want = kernels.enum_upsets(ground, limit), backtrack_upsets(ground, limit)
                assert got.dtype == np.bool_ and got.shape == want.shape
                assert np.array_equal(got, want), (k, limit)
                checked += 1
    assert checked > 1000


def test_upset_enumeration_rebuilds_the_lists_it_drops(monkeypatch):
    # past the memo budget each finished sub-ground drops its parts' lists;
    # with a budget of 8 masks nearly every list is dropped, and rebuilt
    # when another sub-ground asks for it
    monkeypatch.setattr(kernels, "_MEMO_MASKS", 8)
    rng = np.random.RandomState(21)
    for k in range(40):
        leq = random_order(rng, rng.randint(0, 16), rng.uniform(0.05, 0.6))
        for limit in (7, 4097):
            assert np.array_equal(kernels.enum_upsets(leq, limit), backtrack_upsets(leq, limit)), k


def test_upset_enumeration_is_bounded_by_the_limit():
    # work stops with the first `limit` upsets: a wide or sparse ground at
    # limit 10 takes milliseconds, and a long chain needs no recursion
    rng = np.random.RandomState(4)
    for leq in (np.eye(60, dtype=np.bool_), random_order(rng, 200, 0.01)):
        t0 = time.process_time()
        got = kernels.enum_upsets(leq, 10)
        assert time.process_time() - t0 < 0.05
        assert np.array_equal(got, backtrack_upsets(leq, 10))
    n = 3000
    got = kernels.enum_upsets(np.triu(np.ones((n, n), dtype=np.bool_)), n + 2)
    # the upsets of a chain are its top segments, shortest first
    assert got.shape == (n + 1, n)
    assert np.array_equal(got, np.arange(n)[None, :] >= np.arange(n, -1, -1)[:, None])


def test_upset_enumeration_keeps_few_masks_on_a_deep_narrow_ground():
    # a 2 x 200 grid: each frame's list is cut at what its parent still
    # needs, so the lists waiting on the stack hold about `limit` masks in
    # all; a kernel that cut each list at `limit` peaked at 4.2 MB
    k, limit = 200, 500
    grid = np.kron(np.triu(np.ones((2, 2), dtype=np.bool_)),
                   np.triu(np.ones((k, k), dtype=np.bool_)))
    tracemalloc.start()
    try:
        got = kernels.enum_upsets(grid, limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert np.array_equal(got, kernels.enum_upsets(grid, 4 * limit)[:limit])


def test_column_bits_match_the_transposed_rows():
    rng = np.random.RandomState(24)
    for n in (1, 9, 63, 64, 65, 100, 130):
        leq = random_order(rng, n, 0.1)
        perm = rng.permutation(n)
        want = kernels._row_bits(leq.T[np.ix_(perm, perm)])
        assert kernels._column_bits(leq, perm) == want


def test_enumeration_respects_limit():
    five = chain(5)
    tables = kernels.enum_monotone_tables(five.leq, five.leq, 7)
    assert len(tables) == 7
    masks = kernels.enum_upsets(five.leq, 3)
    assert len(masks) == 3


def test_enumeration_deterministic():
    p = chain(3)
    a = kernels.enum_monotone_tables(p.leq, p.leq, 100)
    b = kernels.enum_monotone_tables(p.leq, p.leq, 100)
    assert np.array_equal(a, b)


def test_find_isomorphism_against_permutation_search():
    import random

    rng = random.Random(3)
    shapes = all_posets_upto(4)
    cases = [(p, q) for p in shapes for q in shapes if len(p) == len(q)]
    rng.shuffle(cases)
    for p, q in cases[:60]:
        got = kernels.find_isomorphism(p.leq, q.leq)
        n = len(p)
        brute = None
        for perm in itertools.permutations(range(n)):
            perm = np.array(perm, dtype=np.int32)
            if np.array_equal(q.leq[perm][:, perm], p.leq):
                brute = perm
                break
        assert (got is None) == (brute is None)
        if got is not None:
            assert np.array_equal(q.leq[got][:, got], p.leq)


def test_find_isomorphism_medium_sizes():
    # relabelled 8-element lattice against itself and against a non-iso order
    cube = validate_poset(
        [f"{i}{j}{k}" for i in "01" for j in "01" for k in "01"],
        [
            (a, b)
            for a in [f"{i}{j}{k}" for i in "01" for j in "01" for k in "01"]
            for b in [f"{i}{j}{k}" for i in "01" for j in "01" for k in "01"]
            if all(x <= y for x, y in zip(a, b))
        ],
        "000",
    )
    shuffled = validate_poset(
        list("abcdefgh"),
        [
            ("a", x) for x in "bcdefgh"
        ] + [("b", "e"), ("b", "f"), ("c", "e"), ("c", "g"), ("d", "f"), ("d", "g"),
             ("e", "h"), ("f", "h"), ("g", "h")],
        "a",
    )
    assert kernels.find_isomorphism(cube.leq, shuffled.leq) is not None
    eight = chain(8)
    assert kernels.find_isomorphism(cube.leq, eight.leq) is None
    got = kernels.find_isomorphism(eight.leq, eight.leq)
    assert got is not None and np.array_equal(got, np.arange(8))


def _loop_labels(leq):
    """The invariant labels as three rounds of Python loops over all pairs."""
    mix = lambda x: ((x ^ (x >> 31)) * 0x9E3779B97F4A7C15) & ((1 << 63) - 1)  # noqa: E731
    n = leq.shape[0]
    labels = [(int(leq[:, i].sum()) << 20) ^ int(leq[i, :].sum()) for i in range(n)]
    for _ in range(3):
        new = []
        for i in range(n):
            up = sum(mix(labels[j]) for j in range(n) if j != i and leq[i, j])
            down = sum(mix(labels[j]) for j in range(n) if j != i and leq[j, i])
            up, down = up & ((1 << 63) - 1), down & ((1 << 63) - 1)
            new.append(mix(labels[i] ^ mix(up) ^ mix(mix(down))))
        labels = new
    return labels


def test_invariant_labels_match_loop_reference():
    rng = np.random.RandomState(11)
    cases = [np.zeros((0, 0), dtype=np.bool_), np.ones((1, 1), dtype=np.bool_)]
    for _ in range(40):
        n = rng.randint(2, 41)
        rel = np.triu(rng.rand(n, n) < rng.uniform(0.05, 0.5))
        perm = rng.permutation(n)
        cases.append(kernels.transitive_closure(rel)[np.ix_(perm, perm)])
    for leq in cases:
        got = kernels._labels(kernels._strict_pairs(leq), leq.sum(-2), leq.sum(-1))
        assert got.dtype == np.int64 and got.tolist() == _loop_labels(leq)


def test_invariant_labels_of_a_stack_are_each_orders_labels():
    rng = np.random.RandomState(12)
    for n in (0, 1, 5, 17, 40):
        stack = np.stack([random_order(rng, n, 0.2) for _ in range(3)])
        got = kernels._labels(kernels._strict_pairs(stack), stack.sum(-2), stack.sum(-1))
        assert got.shape == (3, n)
        for leq, row in zip(stack, got):
            want = kernels._labels(kernels._strict_pairs(leq), leq.sum(-2), leq.sum(-1))
            assert row.tolist() == want.tolist()


def _iso_cases(rng, count):
    """Seeded pairs of orders on up to 12 elements: 70% an order and a
    relabelling of it, 30% two orders drawn independently."""
    for _ in range(count):
        n, density = rng.randint(1, 13), rng.choice([0.1, 0.2, 0.35, 0.6])
        a = random_order(rng, n, density)
        yield a, relabelled(rng, a) if rng.rand() < 0.7 else random_order(rng, n, density)


def test_find_isomorphism_gives_the_kept_backtrackers_witness():
    rng = np.random.RandomState(21)
    shapes = all_posets_upto(4)
    cases = list(_iso_cases(rng, 400))
    cases += [(p.leq, q.leq) for p in shapes for q in shapes if len(p) == len(q)]
    found = 0
    for a, b in cases:
        got, want = kernels.find_isomorphism(a, b), reference_isomorphism(a, b)
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got, want)
            found += 1
    assert found > 280


def test_find_isomorphism_tells_every_shape_of_five_apart():
    rng = np.random.RandomState(22)
    by_size = {}
    for p in all_posets_upto(5):
        by_size.setdefault(len(p), []).append(p.leq)
    for group in by_size.values():
        for a, b in itertools.combinations(group, 2):
            assert kernels.find_isomorphism(a, b) is None
        for a in group:
            b = relabelled(rng, a)
            got = kernels.find_isomorphism(a, b)
            assert got is not None and np.array_equal(b[np.ix_(got, got)], a)


def test_find_isomorphism_decides_cycle_incidence_pairs_quickly():
    # C_2n against 2.C_n: refinement alone cannot tell them apart, and the
    # plain backtracker took 0.6 s at 16 elements and over a minute at 20
    rng = np.random.RandomState(23)
    for m in range(12, 61, 4):
        one, two = cycle_incidence([m // 2]), cycle_incidence([m // 4, m // 4])
        start = time.perf_counter()
        assert kernels.find_isomorphism(one, two) is None
        assert time.perf_counter() - start < 0.5
        for leq in (one, two):
            copy = relabelled(rng, leq)
            got = kernels.find_isomorphism(leq, copy)
            assert got is not None and np.array_equal(copy[np.ix_(got, got)], leq)


def test_find_isomorphism_tries_one_of_twin_candidates():
    # twins are tried once and never refined, and the witness stays the
    # kept backtracker's; at 512 elements, relabelled copies heavy in twins
    # (8 stars of 63 points below a top) or in automorphisms (256 disjoint
    # 2-chains) are found in a fraction of a second
    rng = np.random.RandomState(25)
    found = 0
    for _ in range(150):
        n, copies = rng.randint(1, 9), rng.randint(1, 8)
        a = with_twins(rng, random_order(rng, n, 0.3), copies)
        b = (relabelled(rng, a) if rng.rand() < 0.7
             else with_twins(rng, random_order(rng, n, 0.3), copies))
        got, want = kernels.find_isomorphism(a, b), reference_isomorphism(a, b)
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got, want)
            found += 1
    assert found > 100
    star = np.eye(64, dtype=np.bool_)
    star[:63, 63] = True
    two_chain = np.triu(np.ones((2, 2), dtype=np.bool_))
    for leq in (np.kron(np.eye(8, dtype=np.bool_), star),
                np.kron(np.eye(256, dtype=np.bool_), two_chain)):
        copy = relabelled(rng, leq)
        start = time.perf_counter()
        got = kernels.find_isomorphism(leq, copy)
        assert time.perf_counter() - start < 0.5
        assert got is not None and np.array_equal(copy[np.ix_(got, got)], leq)


def test_twin_candidates_are_tried_once(monkeypatch):
    # a 3-point star beside C_8 against the same star beside 2.C_4: the
    # points are twins, so the search refutes the incidence orders under
    # the first point's first image only (about 5700 steps, where trying
    # each twin again took about 40000)
    star = np.eye(4, dtype=np.bool_)
    star[:3, 3] = True
    one = np.block([[star, np.zeros((4, 16), dtype=np.bool_)],
                    [np.zeros((16, 4), dtype=np.bool_), cycle_incidence([8])]])
    two = np.block([[star, np.zeros((4, 16), dtype=np.bool_)],
                    [np.zeros((16, 4), dtype=np.bool_), cycle_incidence([4, 4])]])
    monkeypatch.setattr(kernels, "ISO_STEP_BUDGET", 10_000)
    assert kernels.find_isomorphism(one, two) is None


def test_twin_classes_are_equal_rows_and_columns():
    rng = np.random.RandomState(27)
    for n in (1, 5, 12):
        leq = with_twins(rng, random_order(rng, n, 0.3), 6)
        ids = kernels._twin_classes(leq)
        strict = leq & ~np.eye(len(leq), dtype=np.bool_)
        for x, y in itertools.combinations(range(len(leq)), 2):
            same = (np.array_equal(strict[x], strict[y])
                    and np.array_equal(strict[:, x], strict[:, y]))
            assert (ids[x] == ids[y]) == same


def _dense_refine(leq, colours):
    """`kernels._refine` by whole-matrix rounds: uint64 matrix-vector
    products over the strict orders in the (2, n, n) stack `leq`."""
    off = (leq & ~np.eye(leq.shape[-1], dtype=np.bool_)).astype(np.uint64)
    mask = np.uint64((1 << 63) - 1)
    classes, rounds = None, 0
    while True:
        hist = np.sort(colours, axis=1)
        if not np.array_equal(hist[0], hist[1]):
            return None, rounds
        now = len(np.unique(hist[0]))
        if now == classes:
            return colours, rounds
        classes, rounds = now, rounds + 1
        mixed = kernels._mix(colours)[..., None]
        up = (off @ mixed)[..., 0] & mask
        down = (off.swapaxes(1, 2) @ mixed)[..., 0] & mask
        colours = kernels._mix(colours ^ kernels._mix(up) ^ kernels._mix(kernels._mix(down)))


def test_refinement_over_related_pairs_matches_whole_matrix_rounds():
    rng = np.random.RandomState(26)
    for n in (1, 6, 20, 45):
        for _ in range(5):
            a = random_order(rng, n, rng.choice([0.05, 0.2, 0.5]))
            b = relabelled(rng, a) if rng.rand() < 0.7 else random_order(rng, n, 0.2)
            stack = np.stack([a, b])
            colours = kernels._labels(kernels._strict_pairs(stack), stack.sum(-2),
                                      stack.sum(-1)).view(np.uint64)
            colours[0, 0] = colours[1, rng.randint(n)] = 1 << 63
            got, rounds = kernels._refine(kernels._strict_pairs(stack), colours)
            want, want_rounds = _dense_refine(stack, colours)
            assert rounds == want_rounds
            assert (got is None) == (want is None)
            assert got is None or np.array_equal(got, want)


def test_find_isomorphism_raises_past_its_step_budget(monkeypatch):
    # C_8 against 2.C_4 checks each of the 8 points for the first point at
    # one step each, and refutes them in 28 refinement rounds in all; a
    # round costs 200 + p/24 steps for the p = 2 x 16 related pairs
    one, two = cycle_incidence([8]), cycle_incidence([4, 4])
    need = 8 + 28 * (200 + 32 // 24)
    for budget in (1, need - 1):
        monkeypatch.setattr(kernels, "ISO_STEP_BUDGET", budget)
        with pytest.raises(SearchBudgetExceeded):
            kernels.find_isomorphism(one, two)
    monkeypatch.setattr(kernels, "ISO_STEP_BUDGET", need)
    assert kernels.find_isomorphism(one, two) is None
    assert issubclass(SearchBudgetExceeded, NufixError)


def _longest_chain_below(leq):
    """Elements on the longest chain ending at each element, minus one, by
    relaxing along a linear extension."""
    depth = [0] * len(leq)
    for j in linear_extension(leq).tolist():
        for i in np.flatnonzero(leq[:, j]).tolist():
            if i != j:
                depth[j] = max(depth[j], depth[i] + 1)
    return depth


def test_levels_group_by_longest_chain_below():
    rng = np.random.RandomState(5)
    cases = [np.zeros((0, 0), dtype=np.bool_), chain(6).leq, np.eye(5, dtype=np.bool_)]
    cases += [random_order(rng, rng.randint(1, 30), rng.uniform(0.02, 0.4))
              for _ in range(40)]
    for leq in cases:
        groups = kernels.levels(leq)
        depth = _longest_chain_below(leq)
        assert sorted(np.concatenate(groups or [[]]).tolist()) == list(range(len(leq)))
        for k, group in enumerate(groups):
            assert all(depth[i] == k for i in group.tolist())
            assert np.array_equal(leq[np.ix_(group, group)], np.eye(len(group), dtype=np.bool_))


def count_upsets_bruteforce(leq):
    """Reference for `kernels.count_upsets_stack`: one poset at a time,
    filtering all 2**n subsets for up-closure."""
    n = leq.shape[0]
    count = 0
    strict = leq.copy()
    np.fill_diagonal(strict, False)
    for mask in range(1 << n):
        members = np.array([(mask >> i) & 1 for i in range(n)], dtype=np.bool_)
        if not (members[:, None] & strict & ~members[None, :]).any():
            count += 1
    return count


def test_count_upsets_stack_matches_the_per_poset_reference():
    by_size = {}
    for p in all_posets_upto(5):
        by_size.setdefault(len(p), []).append(p.leq)
    for n, leqs in by_size.items():
        got = kernels.count_upsets_stack(np.array(leqs, dtype=np.bool_).reshape(len(leqs), n, n))
        assert got.tolist() == [count_upsets_bruteforce(leq) for leq in leqs], n
    assert kernels.count_upsets_stack(np.zeros((0, 3, 3), np.bool_)).shape == (0,)


def test_count_upsets_matches_bruteforce_on_small_posets():
    for p in all_posets_upto(5):
        want = count_upsets_bruteforce(p.leq)
        for limit in (0, 1, 2, want - 1, want, want + 1, 10**6):
            assert kernels.count_upsets(p.leq, limit) == min(want, limit)


def test_count_upsets_matches_capped_enumeration():
    rng = np.random.RandomState(9)
    for _ in range(120):
        n = rng.randint(0, 41)
        leq = random_order(rng, n, rng.choice([0.02, 0.05, 0.1, 0.2, 0.4]))
        for limit in (1, 5, 100, 700, 4001):
            assert kernels.count_upsets(leq, limit) == len(kernels.enum_upsets(leq, limit))


def test_count_upsets_on_large_grounds_needs_no_recursion():
    n, huge = 3000, 1 << 4000
    assert kernels.count_upsets(chain(n).leq, huge) == n + 1
    assert kernels.count_upsets(np.eye(n, dtype=np.bool_), huge) == 1 << n
    # a fence a0 < a1 > a2 < a3 ... of m elements has Fibonacci(m + 2) upsets
    m = 400
    rel = np.zeros((m, m), dtype=np.bool_)
    for i in range(m - 1):
        rel[(i, i + 1) if i % 2 == 0 else (i + 1, i)] = True
    fib = [0, 1]
    while len(fib) < m + 3:
        fib.append(fib[-1] + fib[-2])
    assert kernels.count_upsets(kernels.transitive_closure(rel), huge) == fib[m + 2]


def test_count_chain_maps_matches_bruteforce_counts():
    shapes = all_posets_upto(4)
    pointed = [q for q in map(with_declared_bottom, shapes) if q is not None]
    huge = 1 << 20

    def without_bottom(p):
        keep = np.arange(len(p)) != p.bottom_idx
        return p.leq[np.ix_(keep, keep)]

    for p in shapes:
        for h in range(5):
            exact = count_monotone_bruteforce(p.leq, chain(h).leq)
            assert kernels.count_chain_maps(p.leq, h, huge) == exact
            assert kernels.count_chain_maps(p.leq, h, 3) == min(exact, 3)
    for p in pointed:
        for h in range(1, 5):  # strict maps send the bottom to the chain's first element
            exact = count_monotone_bruteforce(p.leq, chain(h).leq, (p.bottom_idx, 0))
            assert kernels.count_chain_maps(without_bottom(p), h, huge) == exact
    # into a longest chain of q: a lower bound on all the maps into q
    for p in shapes:
        for q in shapes:
            h = len(kernels.levels(q.leq))
            assert kernels.count_chain_maps(p.leq, h, huge) <= (
                count_monotone_bruteforce(p.leq, q.leq))
    for p in pointed:
        for q in pointed:
            h = len(kernels.levels(q.leq))
            strict_pair = (p.bottom_idx, q.bottom_idx)
            assert kernels.count_chain_maps(without_bottom(p), h, huge) <= (
                count_monotone_bruteforce(p.leq, q.leq, strict_pair))


def test_count_chain_maps_from_a_chain_matches_the_upset_count():
    rng = np.random.RandomState(3)
    for n in range(8):
        perm = rng.permutation(n)
        for leq in (chain(n).leq, chain(n).leq[np.ix_(perm, perm)]):
            for h in range(1, 8):
                grid = np.kron(leq, np.triu(np.ones((h - 1, h - 1), dtype=np.bool_)))
                for limit in (1 << 20, 5):
                    general = kernels.count_upsets(grid, limit)
                    assert kernels.count_chain_maps(leq, h, limit) == general
                if h ** n <= 4096:
                    exact = count_monotone_bruteforce(leq, chain(h).leq)
                    assert kernels.count_chain_maps(leq, h, 1 << 20) == exact


def _violations(leq_dom, leq_cod, table):
    """The comparable pairs (i, j) of the domain whose images are not
    comparable, by a loop over every pair."""
    n = len(table)
    return [(i, j) for i in range(n) for j in range(n)
            if leq_dom[i, j] and not leq_cod[table[i], table[j]]]


def _break_one_pair(rng, leq_dom, leq_cod, table):
    """A copy of a monotone table with one value changed so that exactly one
    comparable pair of the domain is violated, or None if no change does."""
    n = len(table)
    for j in rng.permutation(n):
        below, above = leq_dom[:, j].copy(), leq_dom[j].copy()
        below[j] = above[j] = False
        # violated pairs through j for every candidate value v of table[j]
        hits = (below[:, None] & ~leq_cod[table]).sum(axis=0)
        hits += (above[:, None] & ~leq_cod[:, table].T).sum(axis=0)
        ones = np.flatnonzero(hits == 1)
        if ones.size:
            broken = table.copy()
            broken[j] = rng.choice(ones)
            return broken
    return None


def _random_table_cases(seed, count=80):
    """(dom, cod, tables, broken) on random posets of 0 to 40 elements: up to
    8 monotone tables from the enumerator and copies of them that break
    exactly one comparable pair.  Each codomain gets a top element, so the
    enumerator never backtracks out of a dead end."""
    rng = np.random.RandomState(seed)
    for _ in range(count):
        n, m = rng.randint(0, 41), rng.randint(1, 41)
        dom = random_order(rng, n, rng.choice([0.02, 0.1, 0.3]))
        cod = random_order(rng, m, rng.choice([0.02, 0.1, 0.3]))
        cod[:, rng.choice(np.flatnonzero(cod.sum(axis=1) == 1))] = True
        tables = kernels.enum_monotone_tables(dom, cod, 8)
        broken = [b for b in (_break_one_pair(rng, dom, cod, t) for t in tables)
                  if b is not None]
        yield dom, cod, tables, broken


def test_monotone_ok_matches_a_per_pair_loop():
    seen_broken = 0
    for dom, cod, tables, broken in _random_table_cases(17):
        for t in tables:
            assert _violations(dom, cod, t) == []
            assert kernels.monotone_ok(dom, cod, t) is True
        for b in broken:
            assert len(_violations(dom, cod, b)) == 1
            assert kernels.monotone_ok(dom, cod, b) is False
        seen_broken += len(broken)
    assert seen_broken > 100
    empty = np.zeros((0, 0), dtype=np.bool_)
    assert kernels.monotone_ok(empty, chain(3).leq, np.zeros(0, dtype=np.int32))


def test_monotone_rows_marks_exactly_the_broken_rows():
    for dom, cod, tables, broken in _random_table_cases(29, count=30):
        stack = np.array(list(tables) + list(broken), dtype=np.int32).reshape(-1, len(dom))
        want = [True] * len(tables) + [False] * len(broken)
        assert kernels.monotone_rows(dom, cod, stack).tolist() == want
    empty = np.zeros((0, 0), dtype=np.bool_)
    assert kernels.monotone_rows(empty, chain(3).leq, np.zeros((2, 0), dtype=np.int32)).all()
    assert kernels.monotone_rows(chain(2).leq, chain(3).leq,
                                 np.zeros((0, 2), dtype=np.int32)).shape == (0,)


def test_monotone_map_rejects_exactly_the_broken_tables():
    for dom, cod, tables, broken in _random_table_cases(19, count=30):
        p = FinPoset([f"x{i}" for i in range(len(dom))], dom)
        q = FinPoset([f"y{i}" for i in range(len(cod))], cod)
        for t in tables:
            assert np.array_equal(MonoMap(p, q, t).table, t)
        for b in broken:
            with pytest.raises(DomainMismatch, match="not monotone"):
                MonoMap(p, q, b)


def test_is_plain_iso_matches_the_order_reflecting_bijections():
    rng = np.random.RandomState(23)
    for _ in range(60):
        n = rng.randint(0, 12)
        leq = random_order(rng, n, rng.choice([0.1, 0.3, 0.6]))
        p = FinPoset([f"x{i}" for i in range(n)], leq)
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        # the image of leq under perm, and its closure with random pairs
        # added: perm is monotone onto both, and reflects the order onto the
        # second only when no pair was new
        image = leq[np.ix_(inv, inv)]
        extra = kernels.transitive_closure(image | np.triu(rng.rand(n, n) < 0.2, 1))
        for cod_leq in (image, extra):
            if (cod_leq & cod_leq.T).sum() > n:
                continue  # the added pairs made a cycle
            cod = FinPoset([f"y{i}" for i in range(n)], cod_leq)
            want = np.array_equal(cod_leq[np.ix_(perm, perm)], leq)
            assert mediator._is_plain_iso(MonoMap(p, cod, perm)) is want
        if n >= 2:  # a monotone map that is not injective is no iso
            q = FinPoset(["y"] + [f"z{i}" for i in range(n - 1)],
                         np.eye(n, dtype=np.bool_) | (np.arange(n)[:, None] == 0))
            assert not mediator._is_plain_iso(MonoMap(p, q, np.zeros(n, dtype=np.int32)))
