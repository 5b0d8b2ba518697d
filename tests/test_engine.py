"""Engine checks: terminal sequences, final coalgebras, coinductive
extensions, the carrier action on transformations, the outer solver, and
the limit-colimit coincidence."""

import numpy as np
import pytest

from nufix import engine as E
from nufix import functors as F
from nufix import kernels as K
from nufix import laws as L
from nufix import posets as P
from nufix.laws import _stabilizing_instances
from nufix.errors import DepthMismatch, InstanceMismatch, NotStabilized
from nufix.serialize import dumps, solution_report_json

from generators import not_monotone, set_last

ONE = P.unit()
BOOL = P.boolean_lattice()


def pointed(expr, v=ONE, w=ONE, constants=None, cap=512):
    ast = F.parse(expr, constants) if isinstance(expr, str) else expr
    return F.instantiate(ast, F.Backend.POINTED_STRICT, v, w, cap)


# --------------------------------------------------------------------------
# terminal sequences


def test_identity_stabilizes_immediately():
    seq = E.terminal_sequence(pointed("Id"))
    assert seq.status.stabilized and seq.status.at == 0
    assert all(len(s) == 1 for s in seq.stages)


def test_strict_upsets_of_id_stabilizes_at_zero():
    seq = E.terminal_sequence(pointed("Us(Id)"))
    assert seq.status.stabilized and seq.status.at == 0
    assert len(seq.carrier()) == 1


def test_plain_upsets_of_id_truncates_with_chain_stages():
    seq = E.terminal_sequence(pointed("U(Id)"), inner_budget=8)
    assert not seq.status.stabilized
    assert seq.status.reason == "budget"
    assert len(seq.stages) == 9
    for n, stage in enumerate(seq.stages):
        assert P.iso_check(stage, P.chain(n + 1)) is not None


def test_truncated_growth_is_monotone():
    a = P.lift(P.discrete(["a"]))
    inst = pointed("(V -!> Id) + W + A", a, a, {"A": a})
    seq = E.terminal_sequence(inst, inner_budget=6)
    assert not seq.status.stabilized
    sizes = [len(s) for s in seq.stages]
    assert all(x <= y for x, y in zip(sizes, sizes[1:]))


def test_deep_upsets_of_id_look_up_no_tag(monkeypatch):
    def no_lookup(self, tag):
        raise AssertionError(f"tag lookup of {tag!r}")

    monkeypatch.setattr(P.FinPoset, "index", no_lookup)
    monkeypatch.setattr(P.FinPoset, "__contains__", no_lookup)
    seq = E.terminal_sequence(pointed("U(Id)", cap=4096), inner_budget=40)
    assert [len(s) for s in seq.stages] == list(range(1, 42))
    assert seq.status.kind == "truncated" and seq.status.reason == "budget"


def test_element_cap_truncates_without_crash():
    c = P.lift(P.discrete(["c"]))
    inst = pointed("Us(C * W * Id + C * (V -> Id) + Id)", ONE, ONE, {"C": c})
    seq = E.terminal_sequence(inst)
    assert seq.status.reason == "element-cap"
    assert [len(s) for s in seq.stages] == [1, 4]


# --------------------------------------------------------------------------
# final coalgebras


def test_final_coalgebra_det_family():
    seq = E.terminal_sequence(pointed("(V -!> Id) + W"))
    fin = E.final_coalgebra(seq)
    assert fin.exact and len(fin.carrier) == 1
    assert fin.structure.strict


def test_final_coalgebra_lambek_identities():
    for text, v in [("Lift(W)", BOOL), ("Bool + W", BOOL), ("Us(Id)", ONE)]:
        seq = E.terminal_sequence(pointed(text, v, v))
        fin = E.final_coalgebra(seq)
        assert fin.exact
        assert P.compose(fin.structure, fin.inverse).is_identity()
        assert P.compose(fin.inverse, fin.structure).is_identity()


def test_final_coalgebra_truncated_is_flagged_approximant():
    seq = E.terminal_sequence(pointed("U(Id)"), inner_budget=4)
    fin = E.final_coalgebra(seq)
    assert not fin.exact and fin.structure is None
    assert len(fin.carrier) == len(seq.stages[-1])
    with pytest.raises(NotStabilized):
        E.final_coalgebra(seq, require_exact=True)


# --------------------------------------------------------------------------
# coinductive extensions


def test_extension_of_final_into_itself_is_identity():
    seq = E.terminal_sequence(pointed("Lift(W)", BOOL, BOOL))
    fin = E.final_coalgebra(seq)
    self_coalg = F.CoalgebraSpec(
        fin.inst, fin.carrier, {e: fin.structure(e) for e in fin.carrier.elements}
    )
    ext = E.coinductive_extension(self_coalg, fin)
    assert ext.is_identity()


def test_two_stuck_states_map_to_the_point():
    inst = pointed("Us(Id)")
    seq = E.terminal_sequence(inst)
    fin = E.final_coalgebra(seq)
    carrier = P.validate_poset(
        ["bot", "s1", "s2"], [("bot", "s1"), ("bot", "s2")], "bot"
    )
    stuck = ("upset", ())
    coalg = F.CoalgebraSpec(inst, carrier, {x: stuck for x in carrier.elements})
    ext = E.coinductive_extension(coalg, fin)
    assert ext("s1") == ext("s2")
    assert ext.strict


def test_extension_is_a_strict_monotone_map():
    inst = pointed("Lift(W)", BOOL, BOOL)
    seq = E.terminal_sequence(inst)
    fin = E.final_coalgebra(seq)
    carrier = P.lift(P.discrete(["x"]))
    coalg = F.CoalgebraSpec(
        inst, carrier,
        {carrier.bottom: ("lbot",), ("lup", "x"): ("lup", "top")},
    )
    ext = E.coinductive_extension(coalg, fin)
    assert ext.strict
    assert ext(("lup", "x")) == ("lup", "top")


def test_extension_unique_among_morphisms():
    inst = pointed("Bool + W", BOOL, BOOL)
    seq = E.terminal_sequence(inst)
    fin = E.final_coalgebra(seq)
    carrier = P.lift(P.discrete(["x", "y"]))
    fc = inst.on_object(carrier)
    structure = {
        carrier.bottom: fc.bottom,
        ("lup", "x"): ("inl", "top"),
        ("lup", "y"): ("inr", "top"),
    }
    coalg = F.CoalgebraSpec(inst, carrier, structure)
    ext = E.coinductive_extension(coalg, fin)
    morphisms = E.coalgebra_morphisms(coalg, fin)
    assert morphisms == [ext]


def _constant_coalgebra(inst, carrier):
    bottom = inst.on_object(carrier).bottom
    return F.CoalgebraSpec(inst, carrier, {e: bottom for e in carrier.elements})


@pytest.mark.parametrize("search", [E.coinductive_extension, E.coalgebra_morphisms])
def test_morphisms_into_an_inexact_final_coalgebra_raise(search):
    inst = pointed("U(Id)")
    fin = E.final_coalgebra(E.terminal_sequence(inst, inner_budget=3))
    assert not fin.exact
    coalg = _constant_coalgebra(inst, P.lift(P.discrete(["x"])))
    with pytest.raises(NotStabilized):
        search(coalg, fin)


@pytest.mark.parametrize("search", [E.coinductive_extension, E.coalgebra_morphisms])
def test_morphisms_from_another_instance_raise(search):
    fin = E.final_coalgebra(E.terminal_sequence(pointed("Bool + W", BOOL, BOOL)))
    coalg = _constant_coalgebra(pointed("Lift(W)", BOOL, BOOL),
                                P.lift(P.discrete(["x"])))
    with pytest.raises(InstanceMismatch):
        search(coalg, fin)


def _maps(inst, s, z, cod_bottom):
    """All monotone tables s -> z, bottom-strict in the pointed backend."""
    strict = (s.bottom_idx, cod_bottom) if inst.backend is F.Backend.POINTED_STRICT else None
    return K.enum_monotone_tables(s.leq, z.leq, len(z) ** len(s) + 1, strict)


def _morphisms_one_by_one(coalg, final):
    """Reference search: every candidate as a validated map, its image
    under `on_map`, and the morphism square compared by `compose`."""
    inst, s, z = final.inst, coalg.carrier, final.carrier
    strict = inst.backend is F.Backend.POINTED_STRICT
    out = []
    for row in _maps(inst, s, z, z.bottom_idx):
        cand = P.MonoMap(s, z, row, strict=strict)
        if final.depth == 0:
            fs = inst.on_object(s)
            fcand = P.MonoMap(fs, inst.on_object(z), np.zeros(len(fs), dtype=np.int32))
        else:
            fcand = inst.on_map(cand)
        if P.compose(cand, final.structure) == P.compose(coalg.as_map(), fcand):
            out.append(cand)
    return out


def test_batched_morphism_search_matches_one_by_one(monkeypatch):
    blocks = (E.MORPHISM_BLOCK, 3)  # one block, and several with a short last one
    insts = _stabilizing_instances() + [
        F.instantiate(text, F.Backend.PLAIN, BOOL, BOOL) for text in ("Lift(W)", "W * W")
    ]
    carriers = [P.lift(p) for p in P.all_posets_upto(3)]
    checked = 0
    for inst in insts:
        fin = E.final_coalgebra(E.terminal_sequence(inst), require_exact=True)
        for s in carriers:
            fs = inst.on_object(s)
            rows = _maps(inst, s, fs, fs.bottom_idx)
            cands = E._candidate_tables(fin, s)
            exts = E._coinductive_extensions(fin, s, rows)
            square_hits = []
            for block in blocks:
                monkeypatch.setattr(E, "MORPHISM_BLOCK", block)
                square_hits.append(E._square_hits(fin, s, cands, rows))
            for j, row in enumerate(rows):
                structure = {e: fs.elements[v] for e, v in zip(s.elements, row)}
                coalg = F.CoalgebraSpec(inst, s, structure)
                expected = _morphisms_one_by_one(coalg, fin)
                for block, hits in zip(blocks, square_hits):
                    monkeypatch.setattr(E, "MORPHISM_BLOCK", block)
                    assert E.coalgebra_morphisms(coalg, fin) == expected
                    found = [cands[i].tolist() for i in np.flatnonzero(hits[:, j])]
                    assert found == [m.table.tolist() for m in expected]
                ext = E.coinductive_extension(coalg, fin)
                assert exts[j].tolist() == ext.table.tolist()
                checked += 1
    assert checked == 761 + 9 + 102 + 87 + 149 + 281


def test_batched_uniqueness_law_fails_on_a_wrong_extension(monkeypatch):
    unfold = L._coinductive_extensions

    def shifted(final, s, coalgebras):
        rows = unfold(final, s, coalgebras)
        rows[-1] = (rows[-1] + 1) % len(final.carrier)
        return rows

    assert L.law_coinductive_uniqueness(3).ok
    monkeypatch.setattr(L, "_coinductive_extensions", shifted)
    result = L.law_coinductive_uniqueness(3)
    assert not result.ok
    assert "1 morphisms for a" in result.detail


def test_uniqueness_law_reverifies_the_batched_squares(monkeypatch):
    # both batched paths agree on a wrong morphism for the last coalgebra of
    # a carrier; only the re-verification through on_map and compose sees it
    square_hits, unfold = L._square_hits, L._coinductive_extensions
    wrong = []

    def wrong_hits(final, s, tables, coalgebras):
        hits = square_hits(final, s, tables, coalgebras)
        if len(tables) > 1 and len(coalgebras):
            i = (hits[:, -1].argmax() + 1) % len(tables)
            hits[:, -1] = False
            hits[i, -1] = True
            wrong.append(tables[i])
        return hits

    def wrong_extensions(final, s, coalgebras):
        rows = unfold(final, s, coalgebras)
        if wrong:
            rows[-1] = wrong.pop()
        return rows

    monkeypatch.setattr(L, "_square_hits", wrong_hits)
    monkeypatch.setattr(L, "_coinductive_extensions", wrong_extensions)
    result = L.law_coinductive_uniqueness(3)
    assert not result.ok
    assert result.detail.startswith("batched square disagrees with on_map"), result.detail


def _break_monotonicity(rows, carrier, fc):
    """The last row with one non-bottom entry changed so that it is no
    longer monotone, or None when no such change exists."""
    for i in range(len(carrier)):
        if i == carrier.bottom_idx:
            continue
        for v in range(len(fc)):
            row = rows[-1].copy()
            row[i] = v
            if not_monotone(carrier.leq, fc.leq, row):
                return np.vstack([rows[:-1], row])
    return None


COALGEBRA_MUTATIONS = {
    "not-monotone": (_break_monotonicity, "non-monotone coalgebra"),
    "out-of-range": (lambda rows, s, fc: set_last(rows, -1, len(fc)),
                     "coalgebra value outside F(carrier)"),
    "not-strict": (lambda rows, s, fc: (
        set_last(rows, s.bottom_idx, (fc.bottom_idx + 1) % len(fc)) if len(fc) > 1 else None),
        "non-strict coalgebra"),
    "wrong-width": (lambda rows, s, fc: rows[:, :-1], "coalgebra tables of the wrong width"),
}


@pytest.mark.parametrize("mutation", sorted(COALGEBRA_MUTATIONS))
def test_uniqueness_law_rejects_a_malformed_coalgebra_stack(mutation, monkeypatch):
    tables = L._coalgebra_tables
    mutate, reason = COALGEBRA_MUTATIONS[mutation]
    applied = []

    def broken(inst, carrier):
        rows = tables(inst, carrier)
        out = mutate(rows, carrier, inst.on_object(carrier)) if len(rows) else None
        applied.append(out is not None)
        return rows if out is None else out

    monkeypatch.setattr(L, "_coalgebra_tables", broken)
    result = L.law_coinductive_uniqueness(3)
    assert any(applied)
    assert not result.ok and result.name == "coinductive-uniqueness"
    assert result.detail.startswith(reason), result.detail


# --------------------------------------------------------------------------
# nu on transformations


def test_nu_identity_transformation_gives_identity_pair():
    inst = pointed("(V -!> Id) + W", BOOL, BOOL)
    seq = E.terminal_sequence(inst)
    reindex = F.reindex_ep("(V -!> Id) + W", F.Backend.POINTED_STRICT,
                           P.identity_ep(BOOL))
    out = E.nu_on_transformation(reindex, seq, seq)
    assert out.e.is_identity() and out.p.is_identity()


def test_nu_det_family_from_base_ep():
    # both instances collapse to the point, so the carrier pair is 1 -> 1
    src = pointed("(V -!> Id) + W")
    seq0 = E.terminal_sequence(src)
    z1 = seq0.carrier()
    reindex = F.reindex_ep("(V -!> Id) + W", F.Backend.POINTED_STRICT,
                           P.bottom_ep(ONE, BOOL))
    seq1 = E.terminal_sequence(reindex.dst)
    out = E.nu_on_transformation(reindex, seq0, seq1)
    assert len(out.dom) == len(z1) == 1
    assert P.ep_check(out.e, out.p)


def test_nu_depth_mismatch_raises():
    a = P.lift(P.discrete(["a"]))
    expr = "(V -!> Id) + W + A"
    inst0 = pointed(expr, ONE, ONE, {"A": a})
    seq0 = E.terminal_sequence(inst0, inner_budget=6)  # stabilizes at 1
    reindex = F.reindex_ep(F.parse(expr, {"A": a}), F.Backend.POINTED_STRICT,
                           P.bottom_ep(ONE, seq0.carrier()))
    seq1 = E.terminal_sequence(reindex.dst, inner_budget=3)  # truncated at 3
    seq1.status = E.SeqStatus("truncated", reason="budget")
    short = E.terminal_sequence(reindex.dst, inner_budget=2)
    with pytest.raises(DepthMismatch):
        # forcing different truncation depths on the two rows
        E.nu_on_transformation(reindex, seq1, short)


def test_nu_vertical_pairs_verified_on_truncated_rows():
    c = P.lift(P.discrete(["c"]))
    rep = E.solve_hob("Us(C * W * Id + C * (V -> Id) + Id)", constants={"C": c},
                      outer_budget=3)
    assert len(rep.chain.vertical_eps) >= 2
    for ep in rep.chain.vertical_eps:
        assert P.ep_check(ep.e, ep.p)


# --------------------------------------------------------------------------
# the outer solver


def test_solve_det_family():
    rep = E.solve_hob("(V -!> Id) + W")
    assert rep.solved and rep.chain.status.at <= 1
    assert len(rep.z) == 1
    assert rep.witness is not None
    assert rep.exact


def test_solve_strict_upsets():
    rep = E.solve_hob("Us(Id)")
    assert rep.solved and len(rep.z) == 1


def test_solve_atom_family_truncates_with_growth():
    a = P.lift(P.discrete(["a"]))
    rep = E.solve_hob("(V -!> Id) + W + A", constants={"A": a})
    assert not rep.solved
    sizes = [len(z) for z in rep.chain.params[:3]]
    assert sizes[0] < sizes[1] < sizes[2]
    assert P.iso_check(rep.chain.params[1], a) is not None


def test_solve_is_deterministic():
    a = P.lift(P.discrete(["a"]))
    r1 = E.solve_hob("(V -!> Id) + W + A", constants={"A": a}, inner_budget=4,
                     outer_budget=3)
    r2 = E.solve_hob("(V -!> Id) + W + A", constants={"A": a}, inner_budget=4,
                     outer_budget=3)
    assert dumps(solution_report_json(r1)) == dumps(solution_report_json(r2))


def test_solve_builds_each_object_once_per_state(monkeypatch):
    # an instance memoizes F(X) by the state X alone: its root is built once
    # per state, however often the chain, the reindexing and the checks ask
    roots = {}
    real = F.FunctorInstance._build

    def counting(self, node, p):
        if node is self.expr:
            roots[self, p] = roots.get((self, p), 0) + 1
        return real(self, node, p)

    monkeypatch.setattr(F.FunctorInstance, "_build", counting)
    flat2 = P.lift(P.discrete(["a"]))
    rep = E.solve_hob("(V -!> Id) + W + A", constants={"A": flat2}, element_cap=4096)
    assert [len(z) for z in rep.chain.params] == [1, 2, 17, 18]
    assert {inst for inst, _ in roots} == {row.inst for row in rep.chain.rows}
    assert set(roots.values()) == {1}


def test_solve_reindexes_between_the_rows_instances(monkeypatch):
    made = []
    real = E.Reindex

    def recording(src, dst, ep):
        made.append((src, dst))
        return real(src, dst, ep)

    monkeypatch.setattr(E, "Reindex", recording)
    # unsolved: the vertical chain at row n runs from row n - 1's instance
    # to row n's
    flat2 = P.lift(P.discrete(["a"]))
    rep = E.solve_hob("(V -!> Id) + W + A", constants={"A": flat2}, element_cap=4096)
    insts = [row.inst for row in rep.chain.rows]
    assert len(insts) == 3 and not rep.solved
    assert [(src is insts[n], dst is insts[n + 1]) for n, (src, dst) in enumerate(made)] \
        == [(True, True)] * 2
    # solved at 0: the solution check runs from row 0's instance to a fresh
    # one at Z_1
    made.clear()
    rep = E.solve_hob("(V -!> Id) + W")
    assert rep.solved and rep.chain.status.at == 0 and len(made) == 1
    src, dst = made[0]
    assert src is rep.chain.rows[0].inst
    assert dst is not src and dst.v == dst.w == rep.chain.params[1]


def test_solved_witness_connects_final_carrier_and_z():
    rep = E.solve_hob("(V -!> Id) + W")
    assert rep.witness.dom == rep.final.carrier
    assert rep.witness.cod == rep.z


# --------------------------------------------------------------------------
# limit-colimit coincidence


def test_limit_colimit_on_stabilized_runs():
    for text, v in [("(V -!> Id) + W", ONE), ("Us(Id)", ONE), ("Id", ONE),
                    ("Lift(W)", BOOL), ("Bool + W", BOOL)]:
        seq = E.terminal_sequence(pointed(text, v, v))
        assert seq.status.stabilized
        assert E.check_limit_colimit(seq)


def test_limit_colimit_needs_stabilized():
    seq = E.terminal_sequence(pointed("U(Id)"), inner_budget=3)
    with pytest.raises(NotStabilized):
        E.check_limit_colimit(seq)
