"""Bisimulation-lab checks: the two game engines, quotients, relation
lifting coincidences, behavioural equivalence."""

import itertools
import operator
import random

import numpy as np
import pytest

from nufix import bisim as B
from nufix import engine as E
from nufix import functors as F
from nufix import posets as P
from nufix.errors import (
    InputError,
    InstanceMismatch,
    NotABisimulation,
    NotEquivalence,
    SizeCapExceeded,
    ValueSetMismatch,
)

from generators import random_lts

VALUES = ["p", "q"]


def mk(states, behaviour, values=VALUES):
    return B.LtsSpec(values, states, behaviour)


def output_lts(values):
    return mk(values, {p: (B.OUTPUT, p) for p in values}, values)


# --------------------------------------------------------------------------
# value bisimulation (the plain game)


def test_outputs_give_identity_relation():
    lts = output_lts(["p1", "p2", "p3", "p4"])
    rel = B.value_bisim(lts, lts)
    assert rel.pairs == frozenset((p, p) for p in lts.states)


def test_identical_loops_fully_related():
    l1 = mk(["x"], {"x": (B.INPUT, {"p": "x", "q": "x"})})
    l2 = mk(["y"], {"y": (B.INPUT, {"p": "y", "q": "y"})})
    rel = B.value_bisim(l1, l2)
    assert rel.pairs == frozenset({("x", "y")})


def test_shape_mismatch_excluded():
    l1 = mk(["x"], {"x": (B.OUTPUT, "p")})
    l2 = mk(["y"], {"y": (B.INPUT, {"p": "y", "q": "y"})})
    assert B.value_bisim(l1, l2).pairs == frozenset()


def test_value_set_mismatch_raises():
    l1 = output_lts(["p"])
    l2 = output_lts(["r"])
    with pytest.raises(ValueSetMismatch):
        B.value_bisim(l1, l2)


def test_greatest_means_no_pair_can_be_added():
    lts = mk(
        ["x", "y", "z"],
        {
            "x": (B.INPUT, {"p": "x", "q": "y"}),
            "y": (B.INPUT, {"p": "x", "q": "z"}),
            "z": (B.OUTPUT, "p"),
        },
    )
    rel = B.value_bisim(lts, lts)
    assert B.is_game_bisim(lts, lts, rel.pairs) is None
    for extra in {(a, b) for a in lts.states for b in lts.states} - rel.pairs:
        assert B.is_game_bisim(lts, lts, rel.pairs | {extra}) is not None


# --------------------------------------------------------------------------
# dimmed bisimulation


def test_identity_approx_degenerates_to_value_bisim():
    for behaviour in _all_behaviours(["x", "y"]):
        lts = mk(["x", "y"], behaviour)
        ident = B.Equivalence.identity(VALUES)
        assert B.dimmed_bisim(lts, lts, ident).pairs == B.value_bisim(lts, lts).pairs


def test_total_approx_relates_all_outputs():
    lts = output_lts(["p1", "p2"])
    total = B.Equivalence.total(["p1", "p2"])
    rel = B.dimmed_bisim(lts, lts, total)
    assert rel.pairs == frozenset(itertools.product(lts.states, lts.states))


def test_dimmed_relates_outputs_across_classes():
    lts = mk(["x", "y"], {"x": (B.OUTPUT, "p"), "y": (B.OUTPUT, "q")})
    total = B.Equivalence.total(VALUES)
    assert ("x", "y") in B.dimmed_bisim(lts, lts, total).pairs


def test_union_of_bisimulations_is_a_bisimulation():
    lts = mk(
        ["x", "y", "z"],
        {
            "x": (B.OUTPUT, "p"),
            "y": (B.OUTPUT, "p"),
            "z": (B.INPUT, {"p": "x", "q": "y"}),
        },
    )
    ident = {(s, s) for s in lts.states}
    swap = ident | {("x", "y"), ("y", "x")}
    assert B.is_game_bisim(lts, lts, ident) is None
    assert B.is_game_bisim(lts, lts, swap) is None
    assert B.is_game_bisim(lts, lts, ident | swap) is None


def test_dimmed_output_is_greatest_fixed_point():
    lts = mk(
        ["x", "y", "z"],
        {
            "x": (B.OUTPUT, "p"),
            "y": (B.OUTPUT, "q"),
            "z": (B.INPUT, {"p": "x", "q": "y"}),
        },
    )
    for approx in (B.Equivalence.identity(VALUES), B.Equivalence.total(VALUES)):
        rel = B.dimmed_bisim(lts, lts, approx)
        assert B.is_game_bisim(lts, lts, rel.pairs, approx) is None
        universe = {(a, b) for a in lts.states for b in lts.states}
        for extra in universe - rel.pairs:
            assert B.is_game_bisim(lts, lts, rel.pairs | {extra}, approx) is not None


def test_not_equivalence_rejected():
    with pytest.raises(NotEquivalence):
        B.Equivalence.from_pairs(VALUES, {("p", "q")})


def test_equivalence_lookups():
    eq = B.Equivalence.from_blocks([["r", "p"], ["q"]])
    assert eq.class_of("p") == ("p", "r") and eq.class_of("q") == ("q",)
    assert eq.related("p", "r") and eq.related("q", "q")
    assert not eq.related("p", "q") and not eq.related("p", "ghost")
    assert eq == B.Equivalence((("p", "r"), ("q",)))
    for lookup in (eq.class_of, lambda x: eq.related(x, "p")):
        with pytest.raises(InputError):
            lookup("ghost")


# --------------------------------------------------------------------------
# quotient


def test_quotient_by_identity_is_isomorphic_copy():
    lts = mk(["x", "y"], {"x": (B.INPUT, {"p": "x", "q": "y"}), "y": (B.OUTPUT, "q")})
    ident_states = B.Equivalence.identity(lts.states)
    ident_vals = B.Equivalence.identity(VALUES)
    coalg = B.quotient(lts, ident_states, ident_vals)
    assert len(coalg.carrier) == len(lts.states)


def test_quotient_collapses_outputs_under_total_approx():
    lts = output_lts(["p1", "p2", "p3", "p4"])
    total = B.Equivalence.total(lts.values)
    rel = B.Relation(lts.states, lts.states, total.as_pairs())
    coalg = B.quotient(lts, rel, total)
    assert len(coalg.carrier) == 1


def test_quotient_validates_against_class_instance():
    lts = mk(
        ["x", "y", "z"],
        {
            "x": (B.INPUT, {"p": "y", "q": "z"}),
            "y": (B.OUTPUT, "p"),
            "z": (B.OUTPUT, "q"),
        },
    )
    total = B.Equivalence.total(VALUES)
    greatest = B.dimmed_bisim(lts, lts, total)
    eq = B.Equivalence.from_pairs(lts.states, greatest.pairs)
    coalg = B.quotient(lts, eq, total)
    # CoalgebraSpec construction re-validates membership and monotonicity
    assert set(coalg.carrier.elements) == set(("cls", b) for b in eq.blocks)


def test_quotient_rejects_non_bisimulations():
    lts = mk(["x", "y"], {"x": (B.OUTPUT, "p"), "y": (B.OUTPUT, "q")})
    ident_vals = B.Equivalence.identity(VALUES)
    glue = B.Equivalence.from_blocks([["x", "y"]])
    with pytest.raises(NotABisimulation):
        B.quotient(lts, glue, ident_vals)


def test_quotient_representative_independence():
    lts = mk(
        ["x", "y", "z"],
        {
            "x": (B.INPUT, {"p": "z", "q": "z"}),
            "y": (B.INPUT, {"p": "z", "q": "z"}),
            "z": (B.OUTPUT, "p"),
        },
    )
    ident_vals = B.Equivalence.identity(VALUES)
    eq = B.Equivalence.from_blocks([["x", "y"], ["z"]])
    coalg = B.quotient(lts, eq, ident_vals)
    assert len(coalg.carrier) == 2


# --------------------------------------------------------------------------
# the reference game: one pair at a time, over tags


def _ref_clause(lts1, lts2, x, y, pairs, related):
    """The matching-game clause that (x, y) fails against `pairs`, or None."""
    (k1, b1), (k2, b2) = lts1.behaviour[x], lts2.behaviour[y]
    if k1 != k2:
        return "shape-match"
    if k1 == B.OUTPUT:
        return None if related(b1, b2) else "output-match"
    for p in lts1.values:
        for q in lts2.values:
            if related(p, q) and (b1[p], b2[q]) not in pairs:
                return "input-match"
    return None


def _related(approx):
    return operator.eq if approx is None else approx.related


def _tag_order(pair):
    return P.tag_sort_key(pair[0]), P.tag_sort_key(pair[1])


def _ref_violation(lts1, lts2, pairs, approx=None):
    """First pair in tag order failing the reference game, with its clause."""
    for x, y in sorted(pairs, key=_tag_order):
        clause = _ref_clause(lts1, lts2, x, y, pairs, _related(approx))
        if clause is not None:
            return (x, y), clause
    return None


def _ref_greatest(lts1, lts2, approx=None):
    """Greatest bisimulation by the reference game: drop failing pairs until
    none is left."""
    pairs = set(itertools.product(lts1.states, lts2.states))
    while True:
        drop = {(x, y) for x, y in pairs
                if _ref_clause(lts1, lts2, x, y, pairs, _related(approx)) is not None}
        if not drop:
            return pairs
        pairs -= drop


def _approxes(values):
    return (None, B.Equivalence.identity(values), B.Equivalence.total(values))


def _system_pairs():
    """Pairs of distinct systems, the second listing the values in another
    order; then systems with no values at all and with no states at all."""
    rng = random.Random(11)
    behaviours1 = list(_all_behaviours(["x", "y", "z"]))
    behaviours2 = list(_all_behaviours(["u", "v"]))
    for behaviour in rng.sample(behaviours1, 12):
        for b2 in rng.sample(behaviours2, 3):
            yield mk(["x", "y", "z"], behaviour), mk(["u", "v"], b2, ["q", "p"])
    for _ in range(12):
        yield (random_lts(rng, ["x", "y", "z"], ["p", "q", "r"]),
               random_lts(rng, ["u", "v", "w"], ["r", "p", "q"]))
    loops = {"x": (B.INPUT, {}), "y": (B.INPUT, {})}
    yield mk(["x", "y"], loops, []), mk(["u"], {"u": (B.INPUT, {})}, [])
    empty = mk([], {}, VALUES)
    yield empty, empty
    yield empty, mk(["x"], {"x": (B.OUTPUT, "p")})
    yield mk(["x"], {"x": (B.INPUT, {"p": "x", "q": "x"})}), empty


def _all_relations(states):
    """Every relation on `states`: bit i of the counter holds pair i."""
    pairs = list(itertools.product(states, states))
    for mask in range(1 << len(pairs)):
        yield {p for i, p in enumerate(pairs) if (mask >> i) & 1}


def _sampled_relations(lts1, lts2, rng, count):
    universe = list(itertools.product(lts1.states, lts2.states))
    yield from (set(rng.sample(universe, rng.randint(0, len(universe)))) for _ in range(count))


def test_is_game_bisim_matches_the_reference_game_on_self_pairs():
    rng = random.Random(3)
    for lts in _small_systems():
        relations = (_all_relations(lts.states) if len(lts.states) == 2
                     else _sampled_relations(lts, lts, rng, 40))
        for pairs in relations:
            for approx in _approxes(VALUES):
                expected = _ref_violation(lts, lts, pairs, approx)
                assert B.is_game_bisim(lts, lts, pairs, approx) == expected


def test_game_matches_the_reference_game_across_systems():
    rng = random.Random(4)
    for lts1, lts2 in _system_pairs():
        for approx in _approxes(lts1.values):
            related = _ref_greatest(lts1, lts2, approx)
            if approx is None:
                assert B.value_bisim(lts1, lts2).pairs == related
            else:
                assert B.dimmed_bisim(lts1, lts2, approx).pairs == related
            for pairs in itertools.chain([related], _sampled_relations(lts1, lts2, rng, 8)):
                expected = _ref_violation(lts1, lts2, pairs, approx)
                assert B.is_game_bisim(lts1, lts2, pairs, approx) == expected


def test_rows_are_built_once_at_construction():
    rng = random.Random(6)
    lts = random_lts(rng, ["x", "y", "z", "w"], ["r", "p", "q"])
    rows = lts.rows
    for x, row in zip(lts.states, rows):
        kind, payload = lts.behaviour[x]
        if kind == B.INPUT:
            assert row == tuple(lts.states.index(payload[p]) for p in lts.values)
        else:
            assert row == lts.values.index(payload)
    approx = B.Equivalence.total(lts.values)
    B.value_bisim(lts, lts)
    B.dimmed_bisim(lts, random_lts(rng, ["u", "v"], ["q", "r", "p"]), approx)
    B.is_game_bisim(lts, lts, {(x, x) for x in lts.states}, approx)
    assert lts.rows is rows


def _random_partition(rng, values):
    blocks = {}
    for p in values:
        blocks.setdefault(rng.randrange(len(values)), []).append(p)
    return B.Equivalence.from_blocks(list(blocks.values()))


def _refinement_cases():
    """Seeded system pairs of at most 12 states each: the second system lists
    the values in another order, or is the first one; then systems with no
    states and with no values."""
    rng = random.Random(12)
    for _ in range(60):
        values = ["p", "q", "r", "s"][:rng.randint(1, 4)]
        other = rng.sample(values, len(values))
        lts1 = random_lts(rng, [f"x{i}" for i in range(rng.randint(1, 12))], values)
        lts2 = (lts1 if rng.random() < 0.25 else
                random_lts(rng, [f"y{i}" for i in range(rng.randint(1, 12))], other))
        yield lts1, lts2, _random_partition(rng, values)
    empty = mk([], {}, VALUES)
    loops = mk(["x", "y"], {"x": (B.INPUT, {}), "y": (B.INPUT, {})}, [])
    for lts1, lts2 in ((empty, empty), (empty, output_lts(VALUES)), (loops, loops),
                       (loops, mk(["u"], {"u": (B.INPUT, {})}, []))):
        yield lts1, lts2, _random_partition(rng, lts1.values) if lts1.values else None


def test_refinement_matches_the_reference_game():
    for lts1, lts2, approx in _refinement_cases():
        expected = _ref_greatest(lts1, lts2)
        assert B.value_bisim(lts1, lts2).pairs == expected
        approxes = [B.Equivalence.identity(lts1.values), B.Equivalence.total(lts1.values)]
        for approx in approxes + ([approx] if approx else []):
            expected = _ref_greatest(lts1, lts2, approx)
            assert B.dimmed_bisim(lts1, lts2, approx).pairs == expected, (approx, lts1.to_json())


def _line(n, values=VALUES):
    """n states, each inputting any value into the next, the last outputting."""
    states = [f"s{i}" for i in range(n)]
    behaviour = {x: (B.INPUT, {p: y for p in values}) for x, y in zip(states, states[1:])}
    behaviour[states[-1]] = (B.OUTPUT, values[0])
    return mk(states, behaviour, values)


def test_value_bisim_of_a_long_line_is_the_identity():
    # each state is a different distance from the output: a cubic game's
    # rounds remove one diagonal per round and cannot finish here
    line = _line(3000)
    assert B.value_bisim(line, line).pairs == frozenset((x, x) for x in line.states)


def test_is_game_bisim_rejects_pairs_outside_the_states():
    lts = mk(["x"], {"x": (B.OUTPUT, "p")})
    with pytest.raises(InputError):
        B.is_game_bisim(lts, lts, {("x", "ghost")})


def _is_equivalence_by_definition(rel):
    if set(rel.left) != set(rel.right):
        return False
    pairs = rel.pairs
    return (all((x, x) in pairs for x in rel.left)
            and all((b, a) in pairs for a, b in pairs)
            and all((a, d) in pairs for a, b in pairs for c, d in pairs if b == c))


def test_is_equivalence_matches_the_definition():
    rng = random.Random(8)
    carriers = [(), ("a",), ("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d")]
    cases = []
    for left in carriers:
        for right in (left, tuple(reversed(left)), left[:-1], left + ("e",)):
            universe = list(itertools.product(left, right))
            cases.append(B.Relation(left, right, frozenset()))
            cases.append(B.Relation(left, right, frozenset(universe)))
            for _ in range(30):
                picked = rng.sample(universe, rng.randint(0, len(universe)))
                cases.append(B.Relation(left, right, frozenset(picked)))
        square = list(itertools.product(left, left))
        for _ in range(10):  # equivalences, and each with one pair toggled
            blocks = {}
            for x in left:
                blocks.setdefault(rng.randrange(3), []).append(x)
            pairs = B.Equivalence.from_blocks(list(blocks.values())).as_pairs()
            cases.append(B.Relation(left, left, pairs))
            for toggled in rng.sample(square, min(2, len(square))):
                cases.append(B.Relation(left, left, pairs ^ {toggled}))
    assert any(r.is_equivalence for r in cases) and not all(r.is_equivalence for r in cases)
    for rel in cases:
        assert rel.is_equivalence == _is_equivalence_by_definition(rel), rel


def _flags_by_definition(stack):
    carrier = tuple("abcdefgh"[:stack.shape[-1]])
    return [_is_equivalence_by_definition(B.Relation(carrier, carrier, [
        (carrier[i], carrier[j]) for i, j in np.argwhere(m).tolist()])) for m in stack]


def test_equivalence_flags_match_the_definition():
    for n in range(4):  # every relation over at most 3 elements, as one stack
        masks = np.arange(1 << (n * n))
        stack = (masks[:, None] >> np.arange(n * n) & 1).astype(np.bool_).reshape(len(masks), n, n)
        flags = B._equivalence_flags(stack)
        assert flags.tolist() == _flags_by_definition(stack)
        assert flags.sum() == [1, 1, 2, 5][n]  # the Bell numbers
    rng = np.random.RandomState(5)
    for n in range(1, 9):  # random ones of up to 8 elements, singly and stacked
        labels = rng.randint(0, rng.randint(1, n + 1), size=(40, n))
        stack = labels[:, :, None] == labels[:, None, :]  # equivalences,
        for m in stack[20:30]:  # some with one cell toggled,
            m[rng.randint(n), rng.randint(n)] ^= True
        stack[30:] = rng.rand(10, n, n) < 0.5  # and arbitrary relations
        want = _flags_by_definition(stack)
        assert any(want) and not all(want)
        assert B._equivalence_flags(stack).tolist() == want
        for m, flag in zip(stack, want):
            assert B._equivalence_flags(m) == flag


def _nested_tag(rng, depth=0):
    if depth == 2 or rng.random() < 0.4:
        return rng.choice(["a", "b", "ab", "ba", ""])
    return tuple(_nested_tag(rng, depth + 1) for _ in range(rng.randint(0, 3)))


def test_sorted_pairs_and_json_follow_the_tag_order():
    rng = random.Random(11)
    for _ in range(40):
        tags = list({_nested_tag(rng) for _ in range(rng.randint(0, 12))})
        left = tuple(rng.sample(tags, len(tags)))
        for right in (left, tuple(rng.sample(tags, len(tags)))):
            universe = list(itertools.product(left, right))
            rel = B.Relation(left, right, rng.sample(universe, rng.randint(0, len(universe))))
            want = sorted(rel.pairs, key=lambda p: (P.tag_sort_key(p[0]), P.tag_sort_key(p[1])))
            assert rel.sorted_pairs() == want
            assert rel.to_json() == [[P.tag_to_json(a), P.tag_to_json(b)] for a, b in want]


def test_a_large_relation_answers_without_its_pair_view():
    states = [f"s{i}" for i in range(10_000)]
    lts = random_lts(random.Random(1), states, ["a", "b", "c"])
    rel = B.value_bisim(lts, lts)
    assert len(rel) == 5_089_504
    assert ("s0", "s0") in rel and ("s0", "ghost") not in rel
    assert rel.is_equivalence
    assert "pairs" not in vars(rel)
    rel.matrix[-1, -2] ^= True  # in the last row chunk of the equivalence test
    assert not rel.is_equivalence


# --------------------------------------------------------------------------
# coalgebraic bisimulation and cross-checks


def _all_behaviours(states, values=VALUES):
    options = []
    for _ in states:
        opts = [(B.OUTPUT, p) for p in values]
        for tgt in itertools.product(states, repeat=len(values)):
            opts.append((B.INPUT, dict(zip(values, tgt))))
        options.append(opts)
    for combo in itertools.product(*options):
        yield dict(zip(states, combo))


def _union_of_game_bisims(lts, approx=None):
    """Oracle for the greatest bisimulation: the union of every relation the
    reference game accepts, found by trying each of them."""
    union = set()
    for pairs in _all_relations(lts.states):
        if _ref_violation(lts, lts, pairs, approx) is None:
            union |= pairs
    return union


def _small_systems():
    for behaviour in _all_behaviours(["x", "y"]):
        yield mk(["x", "y"], behaviour)
    behaviours = list(_all_behaviours(["x", "y", "z"]))
    for behaviour in random.Random(5).sample(behaviours, 20):
        yield mk(["x", "y", "z"], behaviour)


def test_greatest_bisims_equal_the_union_of_all_bisims():
    approxes = (B.Equivalence.identity(VALUES), B.Equivalence.total(VALUES))
    for lts in _small_systems():
        assert B.value_bisim(lts, lts).pairs == _union_of_game_bisims(lts)
        for approx in approxes:
            assert B.dimmed_bisim(lts, lts, approx).pairs == _union_of_game_bisims(lts, approx)


def test_coalg_bisim_contains_identity_on_self():
    lts = mk(["x", "y"], {"x": (B.OUTPUT, "p"), "y": (B.INPUT, {"p": "x", "q": "x"})})
    c = B.lts_to_coalgebra(lts)
    rel = B.coalg_bisim(c, c)
    assert {(s, s) for s in lts.states} <= rel.pairs


def test_coalg_bisim_needs_one_instance():
    one, two = (B.lts_to_coalgebra(output_lts(values)) for values in (["p"], ["p", "q"]))
    with pytest.raises(InstanceMismatch):
        B.coalg_bisim(one, two)


def test_coalg_bisim_equals_value_bisim_exhaustive():
    states = ["x", "y"]
    inst = B.lts_instance(VALUES)
    for behaviour in _all_behaviours(states):
        lts = mk(states, behaviour)
        coalg = B.lts_to_coalgebra(lts, inst)
        assert B.coalg_bisim(coalg, coalg).pairs == B.value_bisim(lts, lts).pairs


def test_coalg_bisim_on_three_state_instances():
    states = ["x", "y", "z"]
    rng = random.Random(2)
    inst = B.lts_instance(VALUES)
    behaviours = list(_all_behaviours(states))
    rng.shuffle(behaviours)
    for behaviour in behaviours[:40]:
        lts = mk(states, behaviour)
        coalg = B.lts_to_coalgebra(lts, inst)
        assert B.coalg_bisim(coalg, coalg).pairs == B.value_bisim(lts, lts).pairs


def test_coalg_bisim_yields_equivalence_on_single_coalgebra():
    lts = mk(
        ["x", "y", "z"],
        {
            "x": (B.OUTPUT, "p"),
            "y": (B.OUTPUT, "p"),
            "z": (B.INPUT, {"p": "x", "q": "y"}),
        },
    )
    c = B.lts_to_coalgebra(lts)
    assert B.coalg_bisim(c, c).is_equivalence


def test_stuck_states_related_over_strict_upsets():
    one = P.unit()
    inst = F.instantiate("Us(Id)", F.Backend.POINTED_STRICT, one, one)
    flat = P.lift(P.discrete(["s1", "s2"]))
    stuck = ("upset", ())
    coalg = F.CoalgebraSpec(inst, flat, {x: stuck for x in flat.elements})
    rel = B.coalg_bisim(coalg, coalg)
    assert (("lup", "s1"), ("lup", "s2")) in rel.pairs


# --------------------------------------------------------------------------
# behavioural equivalence


def test_behavioural_equiv_identity_on_final_coalgebra():
    b = P.boolean_lattice()
    inst = F.instantiate("Lift(W)", F.Backend.POINTED_STRICT, b, b)
    seq = E.terminal_sequence(inst)
    fin = E.final_coalgebra(seq)
    coalg = F.CoalgebraSpec(
        inst, fin.carrier, {e: fin.structure(e) for e in fin.carrier.elements}
    )
    eq = B.behavioural_equiv(coalg, fin)
    assert all(len(block) == 1 for block in eq.blocks)


def test_behavioural_equiv_one_block_for_stuck_states():
    one = P.unit()
    inst = F.instantiate("Us(Id)", F.Backend.POINTED_STRICT, one, one)
    seq = E.terminal_sequence(inst)
    fin = E.final_coalgebra(seq)
    flat = P.lift(P.discrete(["s1", "s2"]))
    stuck = ("upset", ())
    coalg = F.CoalgebraSpec(inst, flat, {x: stuck for x in flat.elements})
    eq = B.behavioural_equiv(coalg, fin)
    assert len(eq.blocks) == 1


def test_behavioural_equiv_matches_coalg_bisim_partition():
    b = P.boolean_lattice()
    inst = F.instantiate("Bool + W", F.Backend.POINTED_STRICT, b, b)
    seq = E.terminal_sequence(inst)
    fin = E.final_coalgebra(seq)
    carrier = P.lift(P.discrete(["x", "y", "z"]))
    fc = inst.on_object(carrier)
    structure = {
        carrier.bottom: fc.bottom,
        ("lup", "x"): ("inl", "top"),
        ("lup", "y"): ("inl", "top"),
        ("lup", "z"): ("inr", "top"),
    }
    coalg = F.CoalgebraSpec(inst, carrier, structure)
    eq = B.behavioural_equiv(coalg, fin)
    rel = B.coalg_bisim(coalg, coalg)
    assert eq.as_pairs() == rel.pairs


# --------------------------------------------------------------------------
# the lemma-style coincidence


def test_lemma1_identity_approx_small():
    lts = mk(["x", "y"], {"x": (B.INPUT, {"p": "x", "q": "y"}), "y": (B.OUTPUT, "q")})
    ok, ce = B.lemma1_check(lts, B.Equivalence.identity(VALUES))
    assert ok, ce


def test_lemma1_size_cap():
    lts = output_lts(["p1", "p2", "p3", "p4"])
    with pytest.raises(SizeCapExceeded):
        B.lemma1_check(lts, B.Equivalence.identity(lts.values))


def test_planted_non_bisimulation_rejected_by_both_predicates():
    lts = mk(["x", "y"], {"x": (B.OUTPUT, "p"), "y": (B.OUTPUT, "q")})
    ident = B.Equivalence.identity(VALUES)
    planted = {("x", "y")}
    assert B.is_game_bisim(lts, lts, planted, ident) is not None
    coalg = B.lts_to_coalgebra(lts)
    assert not B.is_lifting_bisim(coalg, coalg, planted, ident.as_pairs())


def test_counterexample_reports_clause_names():
    lts = mk(["x", "y"], {"x": (B.OUTPUT, "p"), "y": (B.OUTPUT, "q")})
    pair, clause = B.is_game_bisim(lts, lts, {("x", "y")})
    assert pair == ("x", "y") and clause == "output-match"
    lts2 = mk(
        ["x", "y"],
        {"x": (B.INPUT, {"p": "x", "q": "x"}), "y": (B.INPUT, {"p": "y", "q": "x"})},
    )
    pair, clause = B.is_game_bisim(lts2, lts2, {("x", "y")})
    assert clause == "input-match"
