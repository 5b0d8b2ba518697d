"""Mediator checks: the inclusion and its left adjoint, the hom-set
bijection, and the two-backend comparison on lazy families."""

import itertools
import json

import numpy as np
import pytest

from nufix import kernels
from nufix import mediator as M
from nufix import posets as P
from nufix import serialize as S
from nufix.errors import (
    DomainMismatch,
    InputError,
    NotCovariant,
    NotPointed,
    SizeCapExceeded,
)

from generators import not_monotone, set_last

ONE = P.unit()
BOOL = P.boolean_lattice()


def test_include_preserves_order_and_forgets_bottom():
    inc = M.include(BOOL)
    assert not inc.is_pointed
    assert inc.elements == BOOL.elements
    assert np.array_equal(inc.leq, BOOL.leq)
    assert len(M.include(ONE)) == 1


def test_include_requires_pointed():
    with pytest.raises(NotPointed):
        M.include(P.discrete(["a"]))


def test_lift_left_adjoint_examples():
    assert len(M.lift_left_adjoint(P.discrete([]))) == 1
    flat = M.lift_left_adjoint(P.discrete(["a", "b"]))
    assert len(flat) == 3 and flat.is_pointed


def test_transpose_untranspose_roundtrip():
    p = P.chain(2)
    lp = P.lift(p)
    table = np.array([BOOL.bottom_idx, 0, 1], dtype=np.int32)
    f = P.MonoMap(lp, BOOL, table, strict=True)
    g = M.transpose(f, p, BOOL)
    assert M.untranspose(g, p, BOOL) == f


def test_adjunction_check_examples():
    # one-point domain: two monotone maps into Bool, two strict maps out of
    # its lift
    one_unpointed = P.discrete(["a"])
    assert M.adjunction_check(one_unpointed, BOOL)
    assert M.adjunction_check(P.discrete([]), BOOL)
    assert M.adjunction_check(P.chain(2), BOOL)


def test_adjunction_check_exhaustive_small():
    shapes = P.all_posets_upto(3)
    pointed = [q for q in map(P.with_declared_bottom, shapes) if q is not None]
    for p in shapes:
        for q in pointed:
            assert M.adjunction_check(p, q)


def per_table_adjunction_check(p, q):
    """The reference: every enumerated table goes through `MonoMap`,
    `transpose` and `untranspose` one at a time.  A table that `MonoMap`
    rejects gives False."""
    lp, inc = P.lift(p), M.include(q)
    strict_tables = kernels.enum_monotone_tables(lp.leq, q.leq, len(q) ** len(lp) + 1,
                                                 (lp.bottom_idx, q.bottom_idx))
    mono_tables = kernels.enum_monotone_tables(p.leq, inc.leq, len(q) ** max(1, len(p)) + 1)
    if len(strict_tables) != len(mono_tables):
        return False
    try:
        seen = set()
        for row in strict_tables:
            f = P.MonoMap(lp, q, row, strict=True)
            g = M.transpose(f, p, q)
            if M.untranspose(g, p, q) != f:
                return False
            seen.add(g.table.tobytes())
        if len(seen) != len(strict_tables):
            return False
        for row in mono_tables:
            g = P.MonoMap(p, inc, row)
            if M.transpose(M.untranspose(g, p, q), p, q) != g:
                return False
    except (DomainMismatch, NotPointed):
        return False
    return True


def _small_pairs():
    shapes = P.all_posets_upto(3)
    pointed = [q for q in map(P.with_declared_bottom, shapes) if q is not None]
    return [(p, q) for p in shapes for q in pointed]


def test_adjunction_check_matches_the_per_table_reference():
    pairs = _small_pairs()
    assert len(pairs) == 36
    for p, q in pairs:
        assert M.adjunction_check(p, q) is per_table_adjunction_check(p, q) is True


def _break_monotonicity(rows, leq_dom, leq_cod, strict):
    """The last row with one free entry changed so that it is no longer
    monotone, or None when no such change exists."""
    for i in range(rows.shape[1]):
        if strict is not None and i == strict[0]:
            continue
        for v in range(len(leq_cod)):
            row = rows[-1].copy()
            row[i] = v
            if not_monotone(leq_dom, leq_cod, row):
                return np.vstack([rows[:-1], row])
    return None


MUTATIONS = {
    "drop": lambda rows, dom, cod, strict: rows[:-1],
    "duplicate": lambda rows, dom, cod, strict: np.vstack([rows, rows[:1]]),
    "repeat": lambda rows, dom, cod, strict: (
        np.vstack([rows[:-1], rows[:1]]) if len(rows) > 1 else None),
    "out-of-range": lambda rows, dom, cod, strict: (
        set_last(rows, -1, len(cod)) if rows.shape[1] else None),
    "not-monotone": _break_monotonicity,
    "not-strict": lambda rows, dom, cod, strict: (
        set_last(rows, strict[0], (strict[1] + 1) % len(cod))
        if strict is not None and len(cod) > 1 else None),
}


@pytest.mark.parametrize("side", ["strict", "plain"])
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_adjunction_check_rejects_a_broken_enumeration(side, mutation, monkeypatch):
    enumerate_tables = kernels.enum_monotone_tables
    applied = []

    def broken(leq_dom, leq_cod, limit, strict=None):
        rows = enumerate_tables(leq_dom, leq_cod, limit, strict)
        if (strict is not None) != (side == "strict"):
            return rows
        out = MUTATIONS[mutation](rows, leq_dom, leq_cod, strict)
        applied.append(out is not None)
        return rows if out is None else out

    monkeypatch.setattr(kernels, "enum_monotone_tables", broken)
    broke = 0
    for p, q in _small_pairs():
        applied.clear()
        batch = M.adjunction_check(p, q)
        if not applied[-1]:
            continue
        broke += 1
        # the reference never compares the plain tables with each other, so
        # it misses a plain table repeated in place of another
        missed = (side, mutation) == ("plain", "repeat")
        assert (batch, per_table_adjunction_check(p, q)) == (False, missed), (p, q)
    # of the 36 pairs, 15 have a domain with a comparable pair to break
    assert broke >= (0 if (side, mutation) == ("plain", "not-strict") else 15)


def _lift_map(f):
    lp, lq = P.lift(f.dom), P.lift(f.cod)
    table = np.empty(len(lp), dtype=np.int32)
    table[lp.bottom_idx] = lq.bottom_idx
    for i, x in enumerate(f.dom.elements):
        table[lp.index(("lup", x))] = lq.index(("lup", f.cod.elements[f.table[i]]))
    return P.MonoMap(lp, lq, table, strict=True)


def test_include_and_lift_are_functorial():
    p, q, r = P.chain(2), P.chain(3), P.chain(2)
    f = P.MonoMap(p, q, np.array([0, 2], dtype=np.int32))
    g = P.MonoMap(q, r, np.array([0, 0, 1], dtype=np.int32))
    assert _lift_map(P.identity(p)).is_identity()
    assert _lift_map(P.compose(f, g)) == P.compose(_lift_map(f), _lift_map(g))
    # include acts as the identity on maps between pointed posets
    inc_f = P.MonoMap(M.include(p), M.include(q), f.table)
    assert np.array_equal(inc_f.table, f.table)


# --------------------------------------------------------------------------
# solve_lifted


def test_lazy_example_stage_sizes():
    rep = M.solve_lifted("Lift((V -> Id) + W)", ONE, ONE, inner_budget=6)
    sizes = [c.size_pointed for c in rep.stages]
    assert sizes == [1, 3, 5, 7, 9, 11, 13][: len(sizes)]
    for a, b in zip(sizes, sizes[1:]):
        assert b == a + 2
    assert rep.ok
    for c in rep.stages:
        assert c.iso is not None and c.projections_agree


def test_lazy_constant_family_stabilizes_immediately():
    rep = M.solve_lifted("Lift(W)", BOOL, BOOL)
    assert rep.pointed_seq.status.stabilized and rep.pointed_seq.status.at == 1
    assert rep.plain_seq.status.stabilized
    assert rep.ok


def test_lazy_identity_gives_growing_chains():
    rep = M.solve_lifted("Lift(Id)", ONE, ONE, inner_budget=5)
    sizes = [c.size_pointed for c in rep.stages]
    assert sizes == list(range(1, len(sizes) + 1))
    for n, c in enumerate(rep.stages):
        assert c.iso is not None
    assert rep.ok


def test_lazy_shape_rejections():
    with pytest.raises(InputError):
        M.solve_lifted("(V -> Id) + W", ONE, ONE)
    with pytest.raises(NotCovariant):
        M.solve_lifted("Lift(U(Id))", ONE, ONE)
    with pytest.raises(InputError):
        M.solve_lifted("Lift((V -!> Id) + W)", ONE, ONE)
    with pytest.raises(NotPointed):
        M.solve_lifted("Lift(W)", P.discrete(["a"]), ONE)


def test_deep_stages_are_compared_without_reading_tags():
    # each stage's tags nest the stage below, 255 deep at the last stage
    rep = M.solve_lifted("Lift((V -> Id) + W)", ONE, ONE, inner_budget=255,
                         element_cap=4096)
    assert rep.status == "agree" and len(rep.stages) == 256


def test_stages_above_the_iso_cap_agree_when_their_orders_do():
    rep = M.solve_lifted("Lift(Id + Id + W)", ONE, ONE, inner_budget=8, element_cap=4096)
    assert rep.status == "agree"
    assert rep.stages[-1].size_pointed == 766 > P.DEFAULT_ISO_CAP


@pytest.mark.parametrize("expr, budget", [("Lift((V -> Id) + W)", 6), ("Lift(Id + Id + W)", 8)])
def test_stages_are_decided_without_the_iso_search(expr, budget, monkeypatch):
    def search(leq_a, leq_b):
        raise AssertionError("the mediator ran the iso search")

    monkeypatch.setattr(kernels, "find_isomorphism", search)
    rep = M.solve_lifted(expr, ONE, ONE, inner_budget=budget, element_cap=4096)
    assert rep.status == "agree"
    for c in rep.stages:
        identity = np.arange(c.size_plain)
        assert np.array_equal(c.iso.forward.table, identity)
        assert np.array_equal(c.iso.backward.table, identity)


def _relabelled_at(k, sequence):
    """A double of `plain_terminal_sequence` whose stage k is relabelled by
    reversing its indices, with the projections into and out of it
    permuted to match: the same sequence up to an iso that is not the
    identity."""

    def relabelled(inst, inner_budget):
        seq = sequence(inst, inner_budget)
        old, below, above = seq.stages[k], seq.projs[k - 1], seq.projs[k]
        perm = np.arange(len(old))[::-1]
        inv = np.argsort(perm)
        new = P.FinPoset([old.elements[i] for i in perm], old.leq[np.ix_(perm, perm)])
        assert not np.array_equal(new.leq, old.leq)
        seq.stages[k] = new
        seq.projs[k - 1] = P.MonoMap(new, below.cod, below.table[perm])
        seq.projs[k] = P.MonoMap(above.dom, new, inv[above.table])
        return seq

    return relabelled


def test_a_relabelled_plain_stage_disagrees(monkeypatch):
    monkeypatch.setattr(M, "plain_terminal_sequence", _relabelled_at(2, M.plain_terminal_sequence))
    rep = M.solve_lifted("Lift((V -> Id) + W)", ONE, ONE, inner_budget=4)
    assert [c.iso is None for c in rep.stages] == [False, False, True, False, False]
    assert rep.status == "disagree"
    loaded = S.load_mediator_report(json.loads(S.dumps(S.mediator_report_json(rep))))
    assert loaded["status"] == "disagree" and len(loaded["stage_isos"]) == 4


def test_adjunction_check_is_capped():
    with pytest.raises(SizeCapExceeded):
        M.adjunction_check(P.chain(M.ADJUNCTION_CAP + 1), BOOL)
    with pytest.raises(SizeCapExceeded):
        M.adjunction_check(ONE, P.chain(M.ADJUNCTION_CAP + 1))


def test_stage_isos_are_reverifiable():
    rep = M.solve_lifted("Lift((V -> Id) + W)", ONE, ONE, inner_budget=4)
    for c in rep.stages:
        iso = c.iso
        assert P.compose(iso.forward, iso.backward).is_identity()
        assert P.compose(iso.backward, iso.forward).is_identity()


def test_plain_iso_needs_a_monotone_inverse():
    flat = P.discrete(["a", "b"])
    two = P.chain(2)
    bijection = P.MonoMap(flat, two, np.array([0, 1], dtype=np.int32))
    assert not M._is_plain_iso(bijection)  # c0 <= c1 but a, b are unrelated
    swap = P.MonoMap(flat, flat, np.array([1, 0], dtype=np.int32))
    assert M._is_plain_iso(swap)
    assert M._is_plain_iso(P.identity(two))


def test_adjunction_check_rejects_a_non_monotone_pair_on_both_sides(monkeypatch):
    """One non-monotone table P -> Q added to the plain side and its strict
    adjunct to the strict side: the counts, the strictness and the transposes
    all still agree, so only the monotonicity checks can reject it."""
    enumerate_tables = kernels.enum_monotone_tables

    def with_extra(leq_dom, leq_cod, limit, strict=None):
        rows = enumerate_tables(leq_dom, leq_cod, limit, strict)
        inner = leq_dom if strict is None else leq_dom[1:, 1:]  # lift puts P at 1..n
        bad = next((np.array(t, dtype=np.int32)
                    for t in itertools.product(range(len(leq_cod)), repeat=len(inner))
                    if not_monotone(inner, leq_cod, t)), None)
        if bad is None:
            return rows
        extra = bad if strict is None else np.concatenate([[strict[1]], bad])
        return np.vstack([rows, extra[None, :].astype(np.int32)])

    monkeypatch.setattr(kernels, "enum_monotone_tables", with_extra)
    broke = 0
    for p, q in _small_pairs():
        if len(q) > 1 and p.leq.sum() > len(p):  # a comparable pair to break
            broke += 1
            assert not M.adjunction_check(p, q), (p, q)
            assert not per_table_adjunction_check(p, q), (p, q)
    assert broke == 15
