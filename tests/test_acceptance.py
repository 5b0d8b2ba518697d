"""Acceptance gate: one test per criterion, exact checks (discrete
structures, no tolerance bands).  Each test prints its own pass line; run
with `pytest -s tests/test_acceptance.py` to see them."""

import itertools
import time

from nufix import bisim as B
from nufix import engine as E
from nufix import functors as F
from nufix import laws as L
from nufix import mediator as M
from nufix import posets as P

ONE = P.unit()


def _flat2():
    return P.lift(P.discrete(["a"]))


def test_criterion_01_deterministic_family():
    t0 = time.perf_counter()
    rep = E.solve_hob("(V -!> Id) + W")
    elapsed = time.perf_counter() - t0
    assert rep.solved
    assert rep.chain.status.at <= 1
    assert len(rep.z) == 1
    # witness iso re-verified through the validating constructor
    P.Iso(rep.witness.forward, rep.witness.backward)
    assert rep.witness.dom == rep.final.carrier and rep.witness.cod == rep.z
    assert elapsed < 1.0
    print(f"PASS criterion 1: deterministic family solved at n={rep.chain.status.at}, "
          f"|Z|=1, witness verified, {elapsed:.3f}s")


def test_criterion_02_upset_pair():
    t0 = time.perf_counter()
    strict = E.terminal_sequence(
        F.instantiate("Us(Id)", F.Backend.POINTED_STRICT, ONE, ONE)
    )
    assert strict.status.stabilized and strict.status.at == 0
    assert len(strict.carrier()) == 1
    plain = E.terminal_sequence(
        F.instantiate("U(Id)", F.Backend.POINTED_STRICT, ONE, ONE), inner_budget=8
    )
    assert not plain.status.stabilized
    for n, stage in enumerate(plain.stages):
        assert P.iso_check(stage, P.chain(n + 1)) is not None
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 2: strict upsets stabilize at 0 on the point; plain "
          f"upsets truncate with (n+1)-chain stages up to n={len(plain.stages) - 1}, "
          f"{elapsed:.3f}s")


def test_criterion_03_atom_extended_family():
    a = _flat2()
    rep = E.solve_hob("(V -!> Id) + W + A", constants={"A": a})
    assert not rep.solved
    sizes = [len(z) for z in rep.chain.params[:3]]
    assert sizes[0] < sizes[1] < sizes[2]
    assert P.iso_check(rep.chain.params[1], a) is not None
    assert rep.chain.vertical_eps
    for ep in rep.chain.vertical_eps:
        assert P.ep_check(ep.e, ep.p)
    print(f"PASS criterion 3: atom family truncated with |Z| growth {sizes}, "
          f"Z1 ~ A, {len(rep.chain.vertical_eps)} vertical ep pairs verified")


def test_criterion_04_ho_ccs_family():
    t0 = time.perf_counter()
    c = _flat2()
    rep = E.solve_hob("Us(C * W * Id + C * (V -> Id) + Id)", constants={"C": c})
    elapsed = time.perf_counter() - t0
    assert len(rep.chain.vertical_eps) >= 2
    checked = 0
    for ep in rep.chain.vertical_eps:
        assert P.ep_check(ep.e, ep.p)
        checked += 1
    lambek = 0
    for seq in rep.chain.rows:
        for ep in seq.eps:
            assert P.ep_check(ep.e, ep.p)
            checked += 1
        if seq.status.stabilized:
            fin = E.final_coalgebra(seq)
            assert P.compose(fin.structure, fin.inverse).is_identity()
            assert P.compose(fin.inverse, fin.structure).is_identity()
            lambek += 1
    assert elapsed < 300.0
    print(f"PASS criterion 4: HO-CCS ran {len(rep.chain.rows)} outer levels "
          f"({checked} ep pairs verified, {lambek} stabilized stages passed "
          f"Lambek), {elapsed:.3f}s")


def test_criterion_05_lazy_example():
    rep = M.solve_lifted("Lift((V -> Id) + W)", ONE, ONE, inner_budget=8,
                         adjunction_cap=4)
    sizes = [c.size_pointed for c in rep.stages]
    assert len(sizes) >= 3
    assert sizes[0] == 1
    for a, b in zip(sizes, sizes[1:]):
        assert b == a + 2
    for c in rep.stages:
        assert c.iso is not None and c.projections_agree
    assert rep.adjunction_sweep and all(ok for (_, _, ok) in rep.adjunction_sweep)
    assert rep.ok
    print(f"PASS criterion 5: lazy stages {sizes} agree across both backends; "
          f"adjunction bijection holds on {len(rep.adjunction_sweep)} (P, Q) "
          f"pairs with |P|, |Q| <= 4")


def _all_two_state_systems():
    values = ["p", "q"]
    states = ["x", "y"]
    options = [(B.OUTPUT, v) for v in values]
    for tgt in itertools.product(states, repeat=2):
        options.append((B.INPUT, dict(zip(values, tgt))))
    for bx in options:
        for by in options:
            yield B.LtsSpec(values, states, {"x": bx, "y": by})


def test_criterion_06_lemma1_equivalence():
    t0 = time.perf_counter()
    equivalences = [
        B.Equivalence.identity(["p", "q"]),
        B.Equivalence.total(["p", "q"]),
    ]
    systems = 0
    for lts in _all_two_state_systems():
        for approx in equivalences:
            ok, counterexample = B.lemma1_check(lts, approx)
            assert ok, (lts.behaviour, approx.blocks, counterexample)
        systems += 1
    elapsed = time.perf_counter() - t0
    assert systems == 36
    assert elapsed < 60.0
    print(f"PASS criterion 6: game and lifting predicates agree on all "
          f"{systems} systems x {len(equivalences)} equivalences x 16 "
          f"relations, {elapsed:.3f}s")


def test_criterion_07_identity_bisimulation():
    values = ["p1", "p2", "p3", "p4"]
    lts = B.LtsSpec(values, values, {p: (B.OUTPUT, p) for p in values})
    rel = B.value_bisim(lts, lts)
    assert rel.pairs == frozenset((p, p) for p in values)
    print("PASS criterion 7: self-outputting system has exactly the identity "
          "as its greatest bisimulation")


def test_criterion_08_property_suites():
    results = L.run_all(seed=42, samples=100)
    for r in results:
        assert r.ok, r.line()
    assert len(results) == 7
    print("PASS criterion 8: " + "; ".join(r.line() for r in results))
