"""Mediator checks: the inclusion and its left adjoint, the hom-set
bijection, and the two-backend comparison on lazy families."""

import numpy as np
import pytest

from nufix import mediator as M
from nufix import posets as P
from nufix.errors import InputError, NotCovariant, NotPointed

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
