"""Order-core checks: constructions, counting invariants, maps, ep-pairs,
iso search, Hasse output, interchange formats."""

import itertools
import json
import sys
from collections import Counter

import numpy as np
import pytest

from nufix import engine as E
from nufix import functors as F
from nufix import kernels
from nufix import posets as P
from nufix.errors import (
    BottomNotLeast,
    CycleDetected,
    DomainMismatch,
    DuplicateElement,
    ElementCapExceeded,
    EpLawViolation,
    NotPointed,
    SearchBudgetExceeded,
    SizeCapExceeded,
)
from nufix.mediator import include

from generators import cycle_incidence, random_order, random_poset


def two_chain():
    return P.validate_poset(["bot", "a"], [("bot", "a")], "bot")


def leq(p, a, b):
    """Is tag a below tag b in p?"""
    return bool(p.leq[p.index(a), p.index(b)])


def from_tags(dom, cod, assign, strict=False):
    """The map sending each dom tag to the cod tag `assign` gives it."""
    table = np.array([cod.index(assign[e]) for e in dom.elements], dtype=np.int32)
    return P.MonoMap(dom, cod, table, strict)


# --------------------------------------------------------------------------
# validate_poset


def test_validate_singleton_pointed():
    p = P.validate_poset(["a"], [], "a")
    assert len(p) == 1 and p.is_pointed and p.bottom == "a"


def test_validate_closure_is_computed():
    p = P.validate_poset(["x", "y", "z"], [("x", "y"), ("y", "z")], "x")
    assert leq(p, "x", "z")


def test_validate_cycle_detected():
    with pytest.raises(CycleDetected):
        P.validate_poset(["a", "b"], [("a", "b"), ("b", "a")], None)


def test_validate_duplicates_and_bottom():
    with pytest.raises(DuplicateElement):
        P.validate_poset(["a", "a"], [], None)
    with pytest.raises(BottomNotLeast):
        P.validate_poset(["a", "b"], [], "a")


# --------------------------------------------------------------------------
# boolean lattice and endomap counts


def test_boolean_lattice_shape():
    b = P.boolean_lattice()
    assert len(b) == 2 and leq(b, "bot", "top") and not leq(b, "top", "bot")


def test_boolean_lattice_endomap_counts():
    b = P.boolean_lattice()
    monotone = strict = 0
    for table in itertools.product(range(2), repeat=2):
        t = np.array(table, dtype=np.int32)
        try:
            m = P.MonoMap(b, b, t)
        except DomainMismatch:
            continue
        monotone += 1
        if t[b.bottom_idx] == b.bottom_idx:
            strict += 1
    assert monotone == 3
    assert strict == 2
    fs = P.fun_space(b, b)
    assert len(fs) == 3
    assert len(P.strict_fun_space(b, b)) == 2


# --------------------------------------------------------------------------
# sums, products, lifts


def test_coalesced_sum_of_units_is_unit():
    one = P.unit()
    s = P.coalesced_sum(one, one)
    assert len(s) == 1 and s.is_pointed


def test_coalesced_sum_of_two_chains():
    c = two_chain()
    s = P.coalesced_sum(c, c)
    assert len(s) == 3
    tops = [e for e in s.elements if e != s.bottom]
    assert not leq(s, tops[0], tops[1]) and not leq(s, tops[1], tops[0])
    assert all(leq(s, s.bottom, t) for t in tops)


def test_coalesced_sum_requires_pointed():
    with pytest.raises(NotPointed):
        P.coalesced_sum(P.discrete(["a"]), P.unit())


def test_lift_of_separated_sum_of_units():
    flat = P.lift(P.separated_sum(P.unit(), P.unit()))
    assert len(flat) == 3 and flat.is_pointed
    non_bot = [e for e in flat.elements if e != flat.bottom]
    assert not leq(flat, non_bot[0], non_bot[1])


def test_size_invariants():
    shapes = [p for p in P.all_posets_upto(3) if len(p)]
    pointed = [q for q in map(P.with_declared_bottom, shapes) if q is not None]
    for p in shapes:
        for q in shapes:
            assert len(P.separated_sum(p, q)) == len(p) + len(q)
            assert len(P.product(p, q)) == len(p) * len(q)
        assert len(P.lift(p)) == len(p) + 1
    for p in pointed:
        for q in pointed:
            assert len(P.coalesced_sum(p, q)) == len(p) + len(q) - 1


def test_product_of_pointed_is_pointed():
    b = P.boolean_lattice()
    pb = P.product(b, b)
    assert pb.is_pointed and pb.bottom == ("pair", "bot", "bot")


# --------------------------------------------------------------------------
# function spaces and upsets


def test_fun_space_examples():
    one, b, c2 = P.unit(), P.boolean_lattice(), two_chain()
    assert len(P.strict_fun_space(one, b)) == 1
    f = P.fun_space(c2, b)
    assert len(f) == 3
    assert P.iso_check(f, P.chain(3)) is not None
    s = P.strict_fun_space(c2, b)
    assert len(s) == 2
    assert P.iso_check(s, P.chain(2)) is not None


def test_upsets_examples():
    one, c2 = P.unit(), two_chain()
    su = P.strict_upsets(one)
    assert len(su) == 1 and su.is_pointed
    u1 = P.upsets(one)
    assert len(u1) == 2
    u2 = P.upsets(c2)
    assert len(u2) == 3 and P.iso_check(u2, P.chain(3)) is not None
    assert u2.bottom == ("upset", ())


def test_upsets_agree_with_bool_valued_maps():
    # the inverse image of top is an order-iso between map spaces and upsets
    b = P.boolean_lattice()
    for p in P.all_posets_upto(5):
        f = P.fun_space(p, b, cap=None)
        u = P.upsets(p, cap=None)
        sent = {}
        for tag in f.elements:
            values = tag[1]
            members = tuple(
                e for e, v in zip(p.elements, values) if v == "top"
            )
            sent[tag] = ("upset", members)
        assert set(sent.values()) == set(u.elements)
        for t1 in f.elements:
            for t2 in f.elements:
                assert leq(f, t1, t2) == leq(u, sent[t1], sent[t2])
        q = P.with_declared_bottom(p)
        if q is not None:
            sf = P.strict_fun_space(q, b, cap=None)
            su = P.strict_upsets(q, cap=None)
            assert len(sf) == len(su)


def _assert_pointwise_order(f, cod):
    t = f.rows
    want = [[all(cod.leq[a, b] for a, b in zip(ti, tj)) for tj in t] for ti in t]
    assert np.array_equal(f.leq, np.array(want, dtype=np.bool_).reshape(len(t), len(t)))


def _assert_inclusion_order(u):
    sets = [set(np.flatnonzero(row).tolist()) for row in u.rows]
    want = [[a <= b for b in sets] for a in sets]
    assert np.array_equal(u.leq, np.array(want, dtype=np.bool_).reshape(len(u), len(u)))


def test_table_and_upset_orders_match_their_definitions():
    rng = np.random.RandomState(3)
    empty = P.discrete([])
    small = [empty, P.discrete(["d0", "d1"]), P.chain(3)]
    small += [random_poset(rng, 3, f"r{i}_") for i in range(4)]
    for p in small:
        for q in small:
            _assert_pointwise_order(P.fun_space(p, q, cap=None), q)
            lp, lq = P.lift(p), P.lift(q)
            _assert_pointwise_order(P.strict_fun_space(lp, lq, cap=None), lq)
    # 125 tables and 128 upsets: several row blocks of the inclusion kernel
    wide = P.fun_space(P.discrete(["x", "y", "z"]), P.chain(5), cap=None)
    assert len(wide) == 125
    _assert_pointwise_order(wide, P.chain(5))
    grounds = small + [random_poset(rng, 6, f"u{i}_") for i in range(6)]
    grounds.append(P.discrete([f"g{i}" for i in range(7)]))
    for p in grounds:
        _assert_inclusion_order(P.upsets(p, cap=None))
        _assert_inclusion_order(P.strict_upsets(P.lift(p), cap=None))
    assert len(P.upsets(grounds[-1], cap=None)) == 128
    # an empty codomain gives no tables; an empty domain gives one
    assert len(P.fun_space(P.chain(2), empty)) == 0
    assert len(P.fun_space(empty, P.chain(2))) == 1
    assert len(P.upsets(empty)) == 1


def test_fun_space_counts_against_bruteforce_small():
    shapes = P.all_posets_upto(4)
    for p in shapes:
        for q in shapes:
            f = P.fun_space(p, q, cap=None)
            assert len(f) == kernels.count_monotone_stack(p.leq[None], q.leq)[0]


def test_discrete_and_caps():
    d = P.discrete(["a", "b"])
    assert len(d) == 2 and not leq(d, "a", "b") and not d.is_pointed
    assert len(P.discrete([])) == 0
    flat = P.lift(d)
    assert len(flat) == 3 and flat.is_pointed
    with pytest.raises(ElementCapExceeded):
        P.upsets(P.discrete([str(i) for i in range(12)]), cap=100)


def _same_poset(a, b):
    return (a == b and a.bottom_idx == b.bottom_idx
            and (a.rows is None) == (b.rows is None)
            and (a.rows is None or np.array_equal(a.rows, b.rows)))


def _raises_exactly_past_cap(build, full):
    caps = {0, 1, 16, len(full) // 2, len(full) - 1, len(full), len(full) + 1}
    for cap in sorted(c for c in caps if c >= 0):
        if len(full) > cap:
            with pytest.raises(ElementCapExceeded):
                build(cap)
        else:
            assert _same_poset(build(cap), full)


def test_certificates_raise_only_past_the_cap():
    rng = np.random.RandomState(17)
    for k in range(40):
        p = random_poset(rng, rng.randint(0, 13), f"p{k}_")
        _raises_exactly_past_cap(lambda cap: P.upsets(p, cap), P.upsets(p, cap=None))
        lp = P.lift(p)
        _raises_exactly_past_cap(lambda cap: P.strict_upsets(lp, cap),
                                 P.strict_upsets(lp, cap=None))
    for k in range(40):
        p, q = random_poset(rng, rng.randint(0, 6), "a"), random_poset(rng, rng.randint(0, 5), "b")
        _raises_exactly_past_cap(lambda cap: P.fun_space(p, q, cap), P.fun_space(p, q, cap=None))
        lp, lq = P.lift(p), P.lift(q)
        _raises_exactly_past_cap(lambda cap: P.strict_fun_space(lp, lq, cap),
                                 P.strict_fun_space(lp, lq, cap=None))


def test_certificates_raise_before_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated past a certificate")

    monkeypatch.setattr(kernels, "enum_upsets", no_enumeration)
    monkeypatch.setattr(kernels, "enum_monotone_tables", no_enumeration)
    wide = P.discrete([f"w{i}" for i in range(12)])
    with pytest.raises(ElementCapExceeded, match="counted ≥ 101 maps into a chain of 2"):
        P.upsets(wide, cap=100)
    with pytest.raises(ElementCapExceeded, match="counted ≥ 101 maps into a chain of 2"):
        P.strict_upsets(P.lift(wide), cap=100)
    # three disjoint 4-chains: width 3, but 5^3 = 125 upsets
    chains = P.separated_sum(P.chain(4, "a"), P.separated_sum(P.chain(4, "b"), P.chain(4, "c")))
    with pytest.raises(ElementCapExceeded, match="counted ≥ 101 maps into a chain of 2"):
        P.upsets(chains, cap=100)
    atoms = P.lift(P.discrete([f"v{i}" for i in range(16)]))
    with pytest.raises(ElementCapExceeded, match="counted ≥ 4097 maps into a chain of 2"):
        P.strict_fun_space(atoms, two_chain(), cap=4096)
    with pytest.raises(ElementCapExceeded, match="counted ≥ 4097 maps into a chain of 3"):
        P.fun_space(P.discrete([f"v{i}" for i in range(8)]), P.chain(3), cap=4096)
    # no antichain is wider than one element here, but C(20, 10) maps are monotone
    with pytest.raises(ElementCapExceeded, match="counted ≥ 4097 maps into a chain of 10"):
        P.fun_space(P.chain(10), P.chain(10), cap=4096)
    with pytest.raises(ElementCapExceeded, match="counted ≥ 4097 maps into a chain of 10"):
        P.strict_fun_space(P.chain(11), P.chain(10), cap=4096)


def test_ho_ccs_at_cap_4096_never_enumerates_past_the_cap(monkeypatch):
    cap, seen = 4096, []

    def recording(enum):
        def run(*args):
            out = enum(*args)
            seen.append(len(out))
            return out
        return run

    monkeypatch.setattr(kernels, "enum_upsets", recording(kernels.enum_upsets))
    monkeypatch.setattr(kernels, "enum_monotone_tables", recording(kernels.enum_monotone_tables))
    rep = E.solve_hob("Us(C * W * Id + C * (V -> Id) + Id)",
                      constants={"C": two_chain()}, element_cap=cap)
    assert seen and max(seen) <= cap
    assert [len(p) for p in rep.chain.params] == [1, 1805, 1]
    assert rep.chain.status == E.SeqStatus("truncated", reason="vertical-ep-unavailable")
    assert [[len(s) for s in row.stages] for row in rep.chain.rows] == [[1, 4, 1805], [1]]
    assert all(row.status.reason == "element-cap" for row in rep.chain.rows)
    assert len(rep.chain.vertical_eps) == 1 and rep.z is None and not rep.solved


# --------------------------------------------------------------------------
# maps, composition, ep-pairs


def test_monomap_rejects_non_monotone():
    c2 = two_chain()
    with pytest.raises(DomainMismatch):
        P.MonoMap(c2, c2, np.array([1, 0], dtype=np.int32))


def test_strict_flag_requires_bottom_preservation():
    b = P.boolean_lattice()
    with pytest.raises(NotPointed):
        P.MonoMap(b, b, np.array([1, 1], dtype=np.int32), strict=True)


def test_compose_keeps_strictness():
    b = P.boolean_lattice()
    f = P.identity(b)
    g = P.MonoMap(b, b, np.array([0, 0], dtype=np.int32), strict=True)
    fg = P.compose(f, g)
    assert fg.strict
    assert fg("top") == "bot"


def test_ep_examples():
    one, b = P.unit(), P.boolean_lattice()
    assert P.ep_check(P.identity(one), P.identity(one))
    bot = from_tags(one, b, {"*": "bot"}, strict=True)
    bang = P.MonoMap(b, one, np.zeros(2, dtype=np.int32), strict=True)
    assert P.ep_check(bot, bang)
    top = from_tags(one, b, {"*": "top"})
    assert not P.ep_check(top, bang)


def test_ep_implies_injective_embedding_surjective_projection():
    import random

    from nufix.laws import random_ep_chain

    rng = random.Random(5)
    for _ in range(50):
        ep1, ep2 = random_ep_chain(rng, 5)
        for ep in (ep1, ep2, ep1.then(ep2)):
            assert ep.e.is_injective()
            assert ep.p.is_surjective()


def test_bottom_ep_and_as_iso():
    one, b = P.unit(), P.boolean_lattice()
    ep = P.bottom_ep(one, b)
    assert ep.as_iso() is None
    ident = P.identity_ep(b)
    assert ident.as_iso() is not None


# --------------------------------------------------------------------------
# ep-pairs from tables against the itemized validation

STRICT_MODES = [None, (False, False), (True, True), (True, False), (False, True)]


def _itemized_map(dom, cod, table, strict):
    """`MonoMap`'s checks one at a time: length, range, monotonicity, then
    strictness.  `strict` None sets the flag as `MonoMap.auto_strict` does,
    once the length is checked.  Returns the table and the flag."""
    table = np.ascontiguousarray(table, dtype=np.int32)
    if table.shape != (len(dom),):
        raise DomainMismatch("table length does not match domain size")
    if strict is None:
        strict = (dom.is_pointed and cod.is_pointed and len(dom) > 0
                  and int(table[dom.bottom_idx]) == cod.bottom_idx)
    if len(dom) and (table.min() < 0 or table.max() >= len(cod)):
        raise DomainMismatch("table value outside codomain")
    if any(not cod.leq[table[i], table[j]] for i, j in zip(*np.nonzero(dom.leq))):
        raise DomainMismatch("assignment is not monotone")
    if strict:
        if not (dom.is_pointed and cod.is_pointed):
            raise NotPointed("strict map requires a pointed poset")
        if table[dom.bottom_idx] != cod.bottom_idx:
            raise NotPointed("map does not preserve bottom")
    return table, bool(strict)


def _itemized_ep(x, y, e, p, strict):
    """The reference for `EpPair.from_tables`: each map checked as above,
    then the two ep laws, one gather each: p . e = id, then e . p <= id."""
    se, sp = (None, None) if strict is None else strict
    e, se = _itemized_map(x, y, e, se)
    p, sp = _itemized_map(y, x, p, sp)
    if not np.array_equal(p[e], np.arange(len(x))):
        raise EpLawViolation("p . e is not the identity")
    if not y.leq[e[p], np.arange(len(y))].all():
        raise EpLawViolation("e . p is not below the identity")
    return "ok", e.tolist(), p.tolist(), se, sp


def _outcome(build):
    """What `build` gives: an accepted pair's tables and strict flags, or
    the class and message of what it raised."""
    try:
        ep = build()
    except Exception as exc:  # the class is part of the outcome
        return type(exc), str(exc)
    if not isinstance(ep, P.EpPair):
        return ep
    return "ok", ep.e.table.tolist(), ep.p.table.tolist(), ep.e.strict, ep.p.strict


def _assert_from_tables_agrees(x, y, e, p, strict):
    """`EpPair.from_tables` (and `EpPair` on two valid maps) accepts exactly
    what the itemized reference accepts, with its flags, and otherwise raises
    its exception.  Returns the reference's outcome."""
    want = _outcome(lambda: _itemized_ep(x, y, e, p, strict))
    got = _outcome(lambda: P.EpPair.from_tables(x, y, e, p, strict))
    assert got == want, (x, y, e, p, strict)
    if want[0] == "ok" or want[0] is EpLawViolation:  # both maps are valid
        se, sp = (None, None) if strict is None else strict
        _, se = _itemized_map(x, y, e, se)
        _, sp = _itemized_map(y, x, p, sp)
        pair = _outcome(lambda: P.EpPair(P.MonoMap(x, y, e, se), P.MonoMap(y, x, p, sp)))
        assert pair == want
    return want[0]


def _posets_with_and_without_bottom(n):
    out = []
    for q in P.all_posets_upto(n):
        out.append(q)
        pointed = P.with_declared_bottom(q)
        if pointed is not None:
            out.append(pointed)
    return out


def _all_tables(n, m):
    """Every table from n elements into m, as the rows of an int32 array."""
    return np.array(list(itertools.product(range(m), repeat=n)), dtype=np.int32).reshape(m ** n, n)


def test_from_tables_matches_itemized_checks_on_every_small_table_pair():
    """Every table pair between posets of at most 3 elements: monotone
    tables with p . e = id under every strict mode, any other pair under
    one, in turn."""
    objects = _posets_with_and_without_bottom(3)
    seen, k = Counter(), 0
    for x, y in itertools.product(objects, repeat=2):
        es, ps = _all_tables(len(x), len(y)), _all_tables(len(y), len(x))
        mono_p = [kernels.monotone_ok(y.leq, x.leq, p) for p in ps]
        for e in es:
            me = kernels.monotone_ok(x.leq, y.leq, e)
            for p, mp in zip(ps, mono_p):
                near = me and mp and np.array_equal(p[e], np.arange(len(x)))
                for strict in STRICT_MODES if near else [STRICT_MODES[k % 5]]:
                    seen[_assert_from_tables_agrees(x, y, e, p, strict)] += 1
                k += 1
    assert {"ok", DomainMismatch, NotPointed, EpLawViolation} <= set(seen)
    assert seen["ok"] > 100, seen


def _ep_tables(rng):
    """The two posets and the tables of a random valid ep-pair."""
    from nufix.laws import random_ep_chain

    ep = random_ep_chain(rng, 6)[rng.randrange(2)]
    return ep.dom, ep.cod, ep.e.table.copy(), ep.p.table.copy()


def test_from_tables_matches_itemized_checks_on_random_tables():
    import random

    rng, nrng = random.Random(18), np.random.RandomState(18)
    seen = Counter()
    for k in range(600):
        if k % 2:
            x, y, e, p = _ep_tables(rng)
            for t in rng.sample([e, p], rng.randrange(3)):  # perturb 0 to 2 entries
                t[rng.randrange(len(t))] = rng.randrange(len(x if t is p else y))
        else:
            x, y = (random_poset(nrng, rng.randint(1, 6), tag) for tag in "xy")
            x, y = (P.with_declared_bottom(q) or q if rng.random() < 0.5 else q for q in (x, y))
            e = nrng.randint(0, len(y), len(x)).astype(np.int32)
            p = nrng.randint(0, len(x), len(y)).astype(np.int32)
        seen[_assert_from_tables_agrees(x, y, e, p, STRICT_MODES[k % 5])] += 1
    assert {"ok", DomainMismatch, EpLawViolation} <= set(seen)


def test_from_tables_matches_itemized_checks_out_of_range_and_misshapen():
    c2, c3, empty = P.chain(2), P.chain(3), P.empty_poset()
    e, p = np.array([0, 2], dtype=np.int32), np.array([0, 0, 1], dtype=np.int32)
    cases = [(c2, c3, e, p), (empty, empty, e[:0], e[:0]), (empty, c2, e[:0], e[:0]),
             (empty, c2, e[:0], e), (c2, empty, e, e[:0]), (c2, empty, e[:0], e[:0])]
    for i in range(2):
        for bad in (-1, 3):
            cases.append((c2, c3, np.where(np.arange(2) == i, bad, e), p))
    for i in range(3):
        for bad in (-1, 2):
            cases.append((c2, c3, e, np.where(np.arange(3) == i, bad, p)))
    for cut in (e[:1], np.append(e, 2)):
        cases += [(c2, c3, cut, p), (c3, c2, p, cut)]
    cases += [(c2, c3, e, p[:2]), (c2, c3, e, np.append(p, 1)), (c2, c3, e[:0], p)]
    seen = Counter(_assert_from_tables_agrees(*case, strict)
                   for case in cases for strict in STRICT_MODES)
    assert seen["ok"] == 5 + 2  # the valid pair under every flag, the empty one unflagged
    assert {DomainMismatch, NotPointed} <= set(seen) and IndexError not in seen


def test_short_tables_raise_domain_mismatch():
    c2, c3, none = P.chain(2), P.chain(3), np.zeros(0, np.int32)
    with pytest.raises(DomainMismatch, match="table length"):
        P.MonoMap.auto_strict(c2, c3, none)
    with pytest.raises(DomainMismatch, match="table length"):
        P.EpPair.from_tables(c2, c3, none, np.zeros(3, np.int32))


# --------------------------------------------------------------------------
# iso_check


def test_iso_check_examples():
    c2 = two_chain()
    u2 = P.upsets(c2)
    assert P.iso_check(u2, P.chain(3)) is not None
    assert P.iso_check(c2, P.discrete(["a", "b"])) is None
    got = P.iso_check(u2, u2)
    assert got is not None and got.forward.is_identity()


def test_iso_check_complete_against_permutations():
    import random

    rng = random.Random(1)
    shapes = [p for p in P.all_posets_upto(4) if len(p) >= 2]
    for _ in range(40):
        p = rng.choice(shapes)
        q = rng.choice(shapes)
        got = P.iso_check(p, q)
        brute = False
        if len(p) == len(q):
            for perm in itertools.permutations(range(len(p))):
                perm = np.array(perm)
                if np.array_equal(q.leq[perm][:, perm], p.leq):
                    brute = True
                    break
        assert (got is not None) == brute


def test_iso_check_complete_on_random_medium_posets():
    import random

    from nufix.laws import random_poset

    rng = random.Random(8)
    for _ in range(15):
        n = rng.randint(5, 6)
        p = random_poset(rng, n)
        q = random_poset(rng, n)
        for a, b in [(p, q), (p, p)]:
            if len(a) != len(b):
                continue
            got = P.iso_check(a, b)
            brute = any(
                np.array_equal(b.leq[np.array(perm)][:, np.array(perm)], a.leq)
                for perm in itertools.permutations(range(len(a)))
            )
            assert (got is not None) == brute


def test_iso_check_size_cap():
    # only a search is capped: equal orders give the identity at any size
    n = P.DEFAULT_ISO_CAP + 1
    flat = P.discrete([str(i) for i in range(n)])
    with pytest.raises(SizeCapExceeded):
        P.iso_check(flat, P.chain(n))
    got = P.iso_check(flat, P.discrete([f"x{i}" for i in range(n)]))
    assert got is not None and np.array_equal(got.forward.table, np.arange(n))


def test_iso_check_raises_past_the_search_budget(monkeypatch):
    # C_8 and 2.C_4 share their degrees and labels, so only the search
    # tells them apart
    one, two = (P.FinPoset([str(i) for i in range(16)], cycle_incidence(lengths))
                for lengths in ([8], [4, 4]))
    monkeypatch.setattr(kernels, "ISO_STEP_BUDGET", 1)
    with pytest.raises(SearchBudgetExceeded):
        P.iso_check(one, two)
    monkeypatch.undo()
    assert P.iso_check(one, two) is None


def test_iso_validates_witness():
    b = P.boolean_lattice()
    with pytest.raises(EpLawViolation):
        P.Iso(
            P.MonoMap(b, b, np.array([0, 0], dtype=np.int32)),
            P.MonoMap(b, b, np.array([0, 0], dtype=np.int32)),
        )


# --------------------------------------------------------------------------
# hasse / dot / json


def test_hasse_examples():
    assert len(P.hasse(P.chain(3))) == 2
    assert P.hasse(P.discrete(["a", "b"])) == []
    b = P.boolean_lattice()
    assert len(P.hasse(P.product(b, b))) == 4


def test_covers_match_the_boolean_product():
    rng = np.random.RandomState(11)
    for n in (0, 1, 63, 64, 65, 201):
        for density in (0.0, 0.05, 0.3):
            leq = random_order(rng, n, density)
            lt = leq & ~np.eye(n, dtype=np.bool_)
            want = np.argwhere(lt & ~(lt @ lt)).tolist()
            assert P._covers(P.FinPoset([f"x{i}" for i in range(n)], leq)) == want


def test_poset_json_roundtrip():
    c = P.coalesced_sum(two_chain(), P.boolean_lattice())
    obj = {"elements": [["cbot"], ["inl", "a"], ["inr", "top"]],
           "leq": [[["cbot"], ["inl", "a"]], [["cbot"], ["inr", "top"]]], "bottom": ["cbot"]}
    back = P.poset_from_json(json.loads(json.dumps(obj)))
    assert back == c


def test_dot_output_mentions_every_element():
    b = P.boolean_lattice()
    dot = P.poset_to_dot(b, "bool")
    assert "rankdir=BT" in dot
    assert dot.count("->") == 1


def test_all_posets_upto_counts():
    # unlabeled poset counts: 1, 2, 5, 16, 63 for sizes 1..5 (plus the empty one)
    shapes = P.all_posets_upto(5)
    by_size = {}
    for p in shapes:
        by_size.setdefault(len(p), []).append(p)
    assert [len(by_size.get(k, [])) for k in range(6)] == [1, 1, 2, 5, 16, 63]
    for group in by_size.values():
        for a, b in itertools.combinations(group, 2):
            assert kernels.find_isomorphism(a.leq, b.leq) is None


def iso_search_shapes(n):
    """Reference for `all_posets_upto`: the same candidates in mask order,
    each kept unless the iso search maps it onto a representative kept
    before it with the same sorted invariant labels."""
    out = [np.zeros((0, 0), dtype=np.bool_)]
    for k in range(1, n + 1):
        slots = [(i, j) for i in range(k) for j in range(i + 1, k)]
        by_labels = {}
        for mask in range(1 << len(slots)):
            leq = np.eye(k, dtype=np.bool_)
            for b, (i, j) in enumerate(slots):
                if (mask >> b) & 1:
                    leq[i, j] = True
            if not np.array_equal(kernels.transitive_closure(leq), leq):
                continue
            labels = kernels._labels(kernels._strict_pairs(leq), leq.sum(-2), leq.sum(-1))
            labels = tuple(sorted(labels.tolist()))
            same = by_labels.setdefault(labels, [])
            if any(kernels.find_isomorphism(leq, r) is not None for r in same):
                continue
            same.append(leq)
            out.append(leq)
    return out


def test_all_posets_upto_matches_the_iso_search_dedupe():
    want = iso_search_shapes(5)
    for n in range(6):
        shapes = P.all_posets_upto(n, prefix="x")
        ref = [leq for leq in want if len(leq) <= n]
        assert len(shapes) == len(ref)
        for p, leq in zip(shapes, ref):
            assert np.array_equal(p.leq, leq) and p.bottom_idx is None
            assert p.elements == tuple(f"x{i}" for i in range(len(p)))


# --------------------------------------------------------------------------
# identity: the order and the tags, hashed by the order alone


def uid_stage(k):
    inst = F.instantiate(F.parse("U(Id)"), F.Backend.POINTED_STRICT, P.unit(), P.unit(), 4096)
    return E.terminal_sequence(inst, inner_budget=k).stages[k]


def test_equal_constructions_are_equal_with_equal_hashes():
    a, b = uid_stage(4), uid_stage(4)
    assert a is not b and a == b and hash(a) == hash(b)
    empty, one, two = ["upset", []], ["upset", [["upset", ["*"]]]], \
        ["upset", [["upset", []], ["upset", ["*"]]]]
    back = P.poset_from_json({"elements": [empty, one, two],
                              "leq": [[empty, one], [one, two]], "bottom": empty})
    stage = uid_stage(2)
    assert back.is_pointed and back == stage and hash(back) == hash(stage)


def test_same_order_with_other_tags_or_bottom_differs():
    assert P.chain(3) != P.chain(3, prefix="d")
    b = P.boolean_lattice()
    assert include(b) != b


def test_duplicate_tags_raise_by_the_first_lookup():
    for lookup in (lambda p: p.index("a"), lambda p: "a" in p):
        with pytest.raises(DuplicateElement):
            lookup(P.FinPoset(("a", "a"), np.eye(2, dtype=bool)))
    with pytest.raises(DuplicateElement):
        P.discrete(["a", "a"])


# --------------------------------------------------------------------------
# tags built on demand

CONSTRUCTORS = ("product", "separated_sum", "coalesced_sum", "lift", "fun_space",
                "strict_fun_space", "upsets", "strict_upsets")
KIND_BUILDS = {"product": "product", "sum": "separated_sum", "coalesced": "coalesced_sum",
               "lift": "lift", "tables": "fun_space", "upsets": "upsets"}


def _eager_tags(build, ops, out, ref):
    """The tags `build(*ops)` gave as `out` when the constructors built them
    eagerly, from the operands' reference tags `ref(op)`."""
    name = getattr(build, "__name__", build)
    if name == "product":
        return tuple(("pair", x, y) for x in ref(ops[0]) for y in ref(ops[1]))
    if name == "separated_sum":
        return tuple([("inl", x) for x in ref(ops[0])] + [("inr", y) for y in ref(ops[1])])
    if name == "coalesced_sum":
        (p, q), (ps, qs) = ops, (ref(ops[0]), ref(ops[1]))
        bp, bq = p.bottom_idx, q.bottom_idx
        return tuple([P.CBOT] + [("inl", x) for x in ps[:bp] + ps[bp + 1:]]
                     + [("inr", y) for y in qs[:bq] + qs[bq + 1:]])
    if name == "lift":
        return tuple([P.LBOT] + [("lup", x) for x in ref(ops[0])])
    if name in ("fun_space", "strict_fun_space"):
        cod = ref(ops[1])
        return tuple(("table", tuple(cod[v] for v in row)) for row in out.rows)
    assert name in ("upsets", "strict_upsets")
    ground = ref(ops[0])
    return tuple(("upset", tuple(e for e, m in zip(ground, row) if m)) for row in out.rows)


@pytest.fixture
def recorded(monkeypatch):
    """Every constructor call while the test runs, as (constructor, poset
    operands, result), wherever `nufix` binds the constructor's name.  The
    calls still build their tags on demand."""
    calls = []
    for name in CONSTRUCTORS:
        original = getattr(P, name)

        def recording(*args, _original=original, **kwargs):
            out = _original(*args, **kwargs)
            calls.append((_original, [a for a in args if isinstance(a, P.FinPoset)], out))
            return out

        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and (mod_name == "nufix" or mod_name.startswith("nufix.")):
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        monkeypatch.setattr(mod, attr, recording)
    return calls


def _reference(calls):
    """Eager reference tags of any poset: a constructed one's from its
    operands' reference tags, a memo hit recorded over other operands
    (`posets._over`) from those, and a leaf's its own.  Keyed by the record,
    which `include` and `with_declared_bottom` share."""
    made = {id(out._record): (build, ops, out) for build, ops, out in calls}
    memo = {}

    def ref(p):
        key = id(p._record)
        if key not in memo:
            if key in made:
                build, ops, out = made[key]
                memo[key] = _eager_tags(build, ops, out, ref)
            elif p._record.kind is not None:
                memo[key] = _eager_tags(KIND_BUILDS[p._record.kind], p.children, p, ref)
            else:
                memo[key] = p.elements
        return memo[key]

    return ref


def _assert_view_agrees(p, tags):
    """p's tags are `tags`, and every tag-level reading of p agrees with an
    eagerly tagged twin."""
    twin = P.FinPoset(tags, p.leq, p.bottom_idx, p.rows)
    assert len(p) == len(twin) == len(tags) and hash(p) == hash(twin)
    assert p == twin and twin == p
    assert p.elements == tags and list(p) == list(tags)
    assert all(p.index(t) == i for i, t in enumerate(tags)) and all(t in p for t in tags)
    assert ("no", "such", "tag") not in p
    assert p.bottom == twin.bottom and repr(p) == repr(twin)
    if len(p) <= 300:  # the cover kernel is cubic
        assert P.hasse(p) == P.hasse(twin)


def test_every_constructor_matches_its_eager_tags(recorded):
    rng = np.random.RandomState(11)
    plain = [P.discrete([]), P.discrete(["d0", "d1"]), P.chain(3)]
    plain += [random_poset(rng, n, f"r{n}_") for n in (3, 4)]
    top_first = P.validate_poset(["t", "a", "b"], [("b", "a"), ("a", "t")], "b")
    pointed = [P.unit(), top_first, P.lift(P.discrete(["a", "b"])), P.lift(plain[-1])]
    for p in plain + pointed:
        P.lift(p)
        P.upsets(p)
        for q in plain + pointed:
            P.product(p, q)
            P.separated_sum(p, q)
            P.fun_space(p, q)
    for p in pointed:
        P.strict_upsets(p)
        for q in pointed:
            P.coalesced_sum(p, q)
            P.strict_fun_space(p, q)
    assert {build.__name__ for build, _, _ in recorded} == set(CONSTRUCTORS)
    ref = _reference(recorded)
    alone = 0
    for _, _, out in recorded:  # one tag at a time, while no tag tree is built
        alone += out._record.tags is None
        assert [P._tag_at(out, i) for i in range(len(out))] == list(ref(out))
    assert alone > len(recorded) // 2
    for _, _, out in recorded:
        _assert_view_agrees(out, ref(out))


def test_nested_tags_match_the_eager_reference(recorded):
    inst = F.instantiate(F.parse("U(Id)"), F.Backend.POINTED_STRICT, P.unit(), P.unit(), 4096)
    uid = E.terminal_sequence(inst, inner_budget=6).stages
    assert [len(s) for s in uid] == [1, 2, 3, 4, 5, 6, 7]
    rep = E.solve_hob("Us(C * W * Id + C * (V -> Id) + Id)",
                      constants={"C": two_chain()}, element_cap=1024)
    hob = [s for row in rep.chain.rows for s in row.stages]
    assert [len(s) for s in hob] == [1, 4, 1, 38, 1]
    inner = P.fun_space(P.chain(2), P.lift(P.discrete(["a", "b"])))
    outer = P.fun_space(P.discrete(["x", "y"]), inner)
    ref = _reference(recorded)
    for p in uid + hob + [inner, outer]:
        _assert_view_agrees(p, ref(p))
    assert uid[6].elements[1] == ("upset", (uid[5].elements[5],))
    assert outer.elements[1] == ("table", (inner.elements[0], inner.elements[1]))
    for _, _, out in recorded:
        assert out.elements == ref(out)


def test_repr_of_a_deep_stage_builds_no_tags():
    # repr labels the bottom by its own tag, built alone from the record
    inst = F.instantiate(F.parse("U(Id)"), F.Backend.POINTED_STRICT, P.unit(), P.unit(), 4096)
    deep = E.terminal_sequence(inst, inner_budget=12).stages[-1]
    assert len(deep) == 13 and deep._record.tags is None
    text = repr(deep)
    assert deep._record.tags is None
    assert text == f"FinPoset(13 elements, bottom={P.pretty_tag(deep.bottom)})"


def count_tag_builds(monkeypatch):
    """A Counter of the tag trees the view builds from now on, by kind."""
    built, view = Counter(), P._tags

    def counting(p):
        if p._record.tags is None:
            built[p._record.kind] += 1
        return view(p)

    monkeypatch.setattr(P, "_tags", counting)
    return built


def test_exponential_constructors_build_no_tags_until_read(monkeypatch):
    calls = count_tag_builds(monkeypatch)
    rng = np.random.RandomState(5)
    made = [
        P.fun_space(random_poset(rng, 4, "a"), random_poset(rng, 4, "b"), 4096),
        P.fun_space(random_poset(rng, 6, "a"), random_poset(rng, 5, "b"), 4096),
        P.strict_fun_space(P.lift(random_poset(rng, 2, "a")),
                           P.lift(random_poset(rng, 2, "b")), 4096),
        P.upsets(random_poset(rng, 16, "u"), 4096),
        P.strict_upsets(P.lift(random_poset(rng, 11, "s")), 4096),
    ]
    assert all(len(p) > 1 for p in made)
    for p in made:
        len(p), hash(p), p.is_pointed, p.bottom_idx, p.locate(p.rows[:1])
    assert made[0] == made[0] and not calls  # three lifts and five spaces, unbuilt
    for p in made:
        p.elements
        p.elements
    # each space once, and the lifts whose tags its tags contain: the strict
    # tables' codomain and the strict upsets' ground, not the tables' domain
    assert calls == {"tables": 3, "upsets": 2, "lift": 2}
    # iso_check reads orders only, never tags
    calls.clear()
    square = P.upsets(P.discrete(["a", "b"]))
    chain4 = P.fun_space(P.discrete(["a"]), P.chain(4))
    assert P.iso_check(square, chain4) is None and not calls
    assert P.iso_check(chain4, P.upsets(P.chain(3))) is not None
    assert not calls


def test_include_and_declared_bottom_share_unbuilt_tags(monkeypatch):
    built = count_tag_builds(monkeypatch)
    lp = P.lift(P.chain(2))
    views = [include(lp), P.with_declared_bottom(include(lp)), lp]
    assert [v.bottom_idx for v in views] == [None, 0, 0] and not built
    assert views[0].elements == views[1].elements == lp.elements and built == {"lift": 1}
    assert views[1] == lp and views[0] != lp


def test_equal_operands_hit_the_memos_without_building_tags(monkeypatch):
    built = count_tag_builds(monkeypatch)
    a, b = uid_stage(4), uid_stage(4)
    assert a is not b and a == b and not built
    sums = []
    real = F.coalesced_sum
    monkeypatch.setattr(F, "coalesced_sum", lambda p, q, cap: sums.append(1) or real(p, q, cap))
    inst = F.instantiate(F.parse("(V -!> Id) + W"), F.Backend.POINTED_STRICT,
                         P.unit(), P.boolean_lattice())
    x, twin = P.upsets(P.lift(P.chain(2))), P.upsets(P.lift(P.chain(2)))
    fx = inst.on_object(x)
    assert twin is not x and inst.on_object(twin) is fx
    # the strict tables out of the one-point V are a singleton at every
    # state, so the sum is enumerated once, and no tag tree is read to see it
    assert [len(inst.on_object(P.chain(k))) for k in (1, 2, 3)] == [2, 2, 2]
    assert sums == [1] and not built


def test_element_forms_rebuild_every_construction():
    # bottoms off index 0 too: the relabelled 3-chain has its bottom at 2
    low = P.FinPoset(["x", "y", "z"], np.array([[1, 0, 0], [1, 1, 0], [1, 1, 1]], bool), 2)
    a, b = P.lift(P.chain(2)), P.boolean_lattice()
    made = [P.product(a, b), P.product(low, P.discrete(["u", "v"])),
            P.separated_sum(a, P.discrete(["u"])), P.coalesced_sum(low, b),
            P.coalesced_sum(a, b), P.lift(b), P.fun_space(low, b), P.strict_fun_space(low, a),
            P.upsets(low), P.strict_upsets(low), include(P.lift(b)),
            P.with_declared_bottom(P.separated_sum(P.empty_poset(), a))]
    for p in made:
        strict = p.rows is not None and P._strict_space(p)
        q = P.poset_from_forms(p._record.kind, p.children, P.element_forms(p), p.bottom_idx,
                               strict)
        assert np.array_equal(q.leq, p.leq) and q.bottom_idx == p.bottom_idx
        assert q.elements == p.elements and len(P.element_labels(q)) == len(p)
    assert [P._strict_space(p) for p in made[6:10]] == [False, True, False, True]
