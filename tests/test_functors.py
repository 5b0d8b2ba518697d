"""Functor DSL checks: syntax, variance, instantiation, the three actions,
reindexing laws, relation lifting, coalgebra validation."""

import random

import numpy as np
import pytest

from nufix import functors as F
from nufix import posets as P
from nufix.errors import (
    BackendMismatch,
    DomainMismatch,
    ExprSyntaxError,
    NotCovariant,
    NotPointed,
    UnknownConstant,
    VarianceError,
)
from nufix.laws import random_ep_chain

ONE = P.unit()
BOOL = P.boolean_lattice()
C3 = P.chain(3)
# Bool into the chain c0 < c1 < c2: top goes to the top, c1 projects down
EP_B3 = P.EpPair(
    P.MonoMap.from_tags(BOOL, C3, {"bot": "c0", "top": "c2"}),
    P.MonoMap.from_tags(C3, BOOL, {"c0": "bot", "c1": "bot", "c2": "top"}),
)
HO_CCS_BODY = "C * W * Id + C * (V -> Id) + Id"


def pointed(expr, v=ONE, w=ONE, constants=None, cap=6000):
    ast = F.parse(expr, constants) if isinstance(expr, str) else expr
    return F.instantiate(ast, F.Backend.POINTED_STRICT, v, w, cap)


# --------------------------------------------------------------------------
# parsing


def test_parse_deterministic_family():
    ast = F.parse("(V -!> Id) + W")
    assert ast == F.Sum(F.StrictFun(F.ParamV(), F.IdF()), F.ParamW())


def test_parse_ho_ccs_family():
    c = P.lift(P.discrete(["c"]))
    ast = F.parse("Us(C * W * Id + C * (V -> Id) + Id)", {"C": c})
    assert isinstance(ast, F.StrictUpset)
    body = ast.inner
    assert isinstance(body, F.Sum) and isinstance(body.left, F.Sum)
    assert body.right == F.IdF()


def test_parse_variance_errors():
    with pytest.raises(VarianceError):
        F.parse("(Id -> W)")
    with pytest.raises(VarianceError):
        F.parse("V + W")
    with pytest.raises(VarianceError):
        F.parse("(W -> Id)")


def test_parse_misc_errors():
    with pytest.raises(UnknownConstant):
        F.parse("A + W")
    with pytest.raises(ExprSyntaxError):
        F.parse("Id + ")
    with pytest.raises(ExprSyntaxError):
        F.parse("Id W")


def test_parse_precedence():
    ast = F.parse("Id * Bool + W")
    assert isinstance(ast, F.Sum) and isinstance(ast.left, F.Prod)


def test_pretty_roundtrip():
    c = P.lift(P.discrete(["c"]))
    samples = [
        "Id",
        "(V -!> Id) + W",
        "Us(C * W * Id + C * (V -> Id) + Id)",
        "Lift((V -> Id) + W)",
        "U(Id) * (Bool -> Id + W)",
        "Id * (Bool + W) * Id",
    ]
    for text in samples:
        ast = F.parse(text, {"C": c})
        assert F.parse(F.pretty(ast), {"C": c}) == ast


# --------------------------------------------------------------------------
# instantiation and the object action


def test_instantiate_det_family_on_unit():
    inst = pointed("(V -!> Id) + W")
    assert len(inst.on_object(ONE)) == 1


def test_instantiate_upset_of_id():
    inst = pointed("U(Id)")
    out = inst.on_object(ONE)
    assert len(out) == 2 and P.iso_check(out, P.chain(2)) is not None


def test_instantiate_identity():
    inst = pointed("Id")
    assert inst.on_object(BOOL) is BOOL or inst.on_object(BOOL) == BOOL


def test_pointed_backend_objects_are_pointed():
    rng = random.Random(9)
    exprs = ["Id + W", "Lift(Id)", "(V -> Id)", "Us(Id)", "U(Id) * Bool", "(V -!> Id) + W"]
    for text in exprs:
        inst = pointed(text, BOOL, BOOL)
        for _ in range(10):
            ep1, _ = random_ep_chain(rng, 4)
            assert inst.on_object(ep1.dom).is_pointed


def test_plain_backend_rejects_strict_nodes():
    with pytest.raises(BackendMismatch):
        F.instantiate("(V -!> Id) + W", F.Backend.PLAIN, ONE, ONE)


def test_pointed_backend_rejects_unpointed_constant():
    d = P.discrete(["a"])
    with pytest.raises(NotPointed):
        F.instantiate(F.parse("A + W", {"A": d}), F.Backend.POINTED_STRICT, ONE, ONE)


def test_sum_mode_per_backend():
    inst_p = pointed("Id + W", BOOL, BOOL)
    inst_q = F.instantiate("Id + W", F.Backend.PLAIN, BOOL, BOOL)
    assert len(inst_p.on_object(BOOL)) == 3  # coalesced
    assert len(inst_q.on_object(BOOL)) == 4  # separated


# --------------------------------------------------------------------------
# ep action


def test_on_ep_identity_node_returns_same_tables():
    inst = pointed("Id")
    ep = P.bottom_ep(ONE, BOOL)
    out = inst.on_ep(ep)
    assert np.array_equal(out.e.table, ep.e.table)
    assert np.array_equal(out.p.table, ep.p.table)


def test_on_ep_strict_upset_concrete():
    inst = pointed("Us(Id)")
    ep = P.bottom_ep(ONE, BOOL)
    out = inst.on_ep(ep)
    src = inst.on_object(ONE)
    dst = inst.on_object(BOOL)
    assert len(src) == 1 and len(dst) == 2
    # the embedding sends the empty upset to the empty upset
    assert out.e(("upset", ())) == ("upset", ())
    # the projection collapses every strict upset of Bool to the empty one
    for tag in dst.elements:
        assert out.p(tag) == ("upset", ())


def _on_ep_b3(text, backend=F.Backend.POINTED_STRICT):
    return lambda: F.instantiate(text, backend, BOOL, BOOL).on_ep(EP_B3)


def _reindex_b3(text):
    return lambda: F.reindex_ep(text, F.Backend.POINTED_STRICT, EP_B3).component(BOOL)


# one concrete case per node kind: (the ep-pair, embedding cases, projection cases)
NODE_CASES = {
    "product": (
        _on_ep_b3("Id * Bool"),
        [(("pair", "top", "bot"), ("pair", "c2", "bot"))],
        [(("pair", "c1", "top"), ("pair", "bot", "top"))],
    ),
    "coalesced-sum": (
        _on_ep_b3("Id + W"),
        [(P.CBOT, P.CBOT), (("inl", "top"), ("inl", "c2")), (("inr", "top"), ("inr", "top"))],
        [(("inl", "c1"), P.CBOT), (("inl", "c2"), ("inl", "top"))],
    ),
    "separated-sum": (
        _on_ep_b3("Id + W", F.Backend.PLAIN),
        [(("inl", "bot"), ("inl", "c0")), (("inr", "bot"), ("inr", "bot"))],
        [(("inl", "c1"), ("inl", "bot")), (("inr", "top"), ("inr", "top"))],
    ),
    "lift": (
        _on_ep_b3("Lift(Id)"),
        [(P.LBOT, P.LBOT), (("lup", "top"), ("lup", "c2"))],
        [(("lup", "c1"), ("lup", "bot"))],
    ),
    "constant-domain-arrow": (
        _on_ep_b3("(Bool -> Id)"),
        [(("table", ("bot", "top")), ("table", ("c0", "c2")))],
        [(("table", ("c1", "c2")), ("table", ("bot", "top")))],
    ),
    # identity state ep; the V domain is reindexed along EP_B3
    "parameter-domain-arrow": (
        _reindex_b3("(V -> Id)"),
        [(("table", ("bot", "top")), ("table", ("bot", "bot", "top")))],
        [(("table", ("bot", "top", "top")), ("table", ("bot", "top")))],
    ),
    "upset": (
        _on_ep_b3("U(Id)"),
        [(("upset", ("top",)), ("upset", ("c2",))),
         (("upset", ("bot", "top")), ("upset", ("c0", "c1", "c2")))],
        [(("upset", ("c1", "c2")), ("upset", ("top",))), (("upset", ()), ("upset", ()))],
    ),
    "strict-upset": (
        _on_ep_b3("Us(Id)"),
        [(("upset", ("top",)), ("upset", ("c2",)))],
        [(("upset", ("c1", "c2")), ("upset", ("top",)))],
    ),
}


@pytest.mark.parametrize("kind", sorted(NODE_CASES))
def test_on_ep_node_concrete(kind):
    make, emb, proj = NODE_CASES[kind]
    out = make()
    for tag, expected in emb:
        assert out.e(tag) == expected
    for tag, expected in proj:
        assert out.p(tag) == expected


def test_on_ep_preserves_identity_everywhere():
    rng = random.Random(23)
    for text in ["Id", "U(Id)", "Us(Id)", "(V -> Id)", "Lift(Id + W)"]:
        inst = pointed(text, BOOL, BOOL)
        for _ in range(5):
            ep1, _ = random_ep_chain(rng, 4)
            out = inst.on_ep(P.identity_ep(ep1.cod))
            assert out.e.is_identity() and out.p.is_identity()


def test_on_ep_agrees_with_on_map_on_upset_free_exprs():
    rng = random.Random(31)
    for text in ["Id", "Id + W", "Lift(Id)", "(Bool -> Id)", "(V -> Id)", "Id * Bool"]:
        inst = pointed(text, BOOL, BOOL)
        for _ in range(10):
            ep1, ep2 = random_ep_chain(rng, 4)
            ep = ep1.then(ep2)
            out = inst.on_ep(ep)
            assert out.e == inst.on_map(ep.e)
            assert out.p == inst.on_map(ep.p)


# --------------------------------------------------------------------------
# plain map action


def test_on_map_identity_and_constants():
    inst = pointed("Id")
    f = P.MonoMap.from_tags(BOOL, BOOL, {"bot": "bot", "top": "top"})
    assert inst.on_map(f) == f
    instc = pointed("Bool")
    g = P.MonoMap(BOOL, BOOL, np.array([0, 0], dtype=np.int32))
    assert instc.on_map(g).is_identity()


def test_on_map_lift_adds_bottom_case():
    inst = pointed("Lift(Id)")
    f = P.MonoMap(BOOL, BOOL, np.array([0, 0], dtype=np.int32))
    out = inst.on_map(f)
    assert out(("lbot",)) == ("lbot",)
    assert out(("lup", "top")) == ("lup", "bot")


def test_on_map_functorial():
    rng = random.Random(17)
    inst = pointed("Lift((V -> Id) + W)", BOOL, BOOL)
    for _ in range(10):
        ep1, ep2 = random_ep_chain(rng, 4)
        f, g = ep1.e, ep2.e
        assert inst.on_map(P.compose(f, g)) == P.compose(inst.on_map(f), inst.on_map(g))
        assert inst.on_map(P.identity(ep1.dom)).is_identity()


def test_on_map_non_strict_through_strict_arrow_has_no_image():
    inst = pointed("(V -!> Id)", BOOL, BOOL)
    top = P.MonoMap(BOOL, BOOL, np.array([1, 1], dtype=np.int32))
    # post-composing a strict table with the constant top map is not strict
    with pytest.raises(DomainMismatch):
        inst.on_map(top)
    # a one-point summand of a coalesced sum has no element left to map
    summed = pointed("(V -!> Id) + W", ONE, BOOL)
    assert summed.on_map(top).is_identity()


def test_on_map_rejects_upsets():
    inst = pointed("Us(Id)")
    with pytest.raises(NotCovariant):
        inst.on_map(P.identity(ONE))


# --------------------------------------------------------------------------
# reindexing


def test_reindex_identity_is_identity():
    reindex = F.reindex_ep("(V -!> Id) + W", F.Backend.POINTED_STRICT,
                           P.identity_ep(BOOL))
    comp = reindex.component(BOOL)
    assert comp.e.is_identity() and comp.p.is_identity()


def test_reindex_det_family_along_bottom_ep():
    ep = P.bottom_ep(ONE, BOOL)
    reindex = F.reindex_ep("(V -!> Id) + W", F.Backend.POINTED_STRICT, ep)
    for p in [ONE, BOOL]:
        comp = reindex.component(p)
        assert P.ep_check(comp.e, comp.p)
        assert comp.dom == reindex.src.on_object(p)
        assert comp.cod == reindex.dst.on_object(p)


def test_reindex_composes():
    rng = random.Random(41)
    cases = [
        ("(V -!> Id) + W", 4, [ONE, BOOL]),
        ("(V -> Id) * W", 4, [ONE, BOOL]),
        ("Us(Bool * W * Id + Bool * (V -> Id) + Id)", 3, [ONE]),
    ]
    for _ in range(10):
        for text, max_elems, stages in cases:
            ep1, ep2 = random_ep_chain(rng, max_elems)
            both = ep1.then(ep2)
            r1 = F.reindex_ep(text, F.Backend.POINTED_STRICT, ep1, element_cap=6000)
            r2 = F.reindex_ep(text, F.Backend.POINTED_STRICT, ep2, element_cap=6000)
            r12 = F.reindex_ep(text, F.Backend.POINTED_STRICT, both, element_cap=6000)
            for p in stages:
                lhs = r12.component(p)
                rhs = r1.component(p).then(r2.component(p))
                assert lhs.e == rhs.e and lhs.p == rhs.p


def test_reindex_natural_on_state_eps():
    rng = random.Random(43)
    for _ in range(8):
        ep_param, _ = random_ep_chain(rng, 3)
        state_ep, _ = random_ep_chain(rng, 3)
        for text in ["(V -!> Id) + W", "Us(Bool * W * Id + Bool * (V -> Id) + Id)"]:
            reindex = F.reindex_ep(text, F.Backend.POINTED_STRICT, ep_param,
                                   element_cap=6000)
            lhs = reindex.component(state_ep.dom).then(reindex.dst.on_ep(state_ep))
            rhs = reindex.src.on_ep(state_ep).then(reindex.component(state_ep.cod))
            assert lhs.e == rhs.e
            assert lhs.p == rhs.p


@pytest.mark.parametrize("text", ["Us(" + HO_CCS_BODY + ")", HO_CCS_BODY, "U(Id)"],
                         ids=["ho-ccs", "ho-ccs-body", "upsets"])
def test_actions_never_look_up_tags(text, monkeypatch):
    ast = F.parse(text, {"C": P.lift(P.discrete(["c"]))})
    inst = F.instantiate(ast, F.Backend.POINTED_STRICT, BOOL, BOOL)
    reindex = F.reindex_ep(ast, F.Backend.POINTED_STRICT, P.bottom_ep(ONE, BOOL))

    def no_tags(*args):
        raise AssertionError("functor action looked up an element tag")

    monkeypatch.setattr(P.FinPoset, "index", no_tags)
    monkeypatch.setattr(P.MonoMap, "__call__", no_tags)
    outs = [inst.on_ep(P.bottom_ep(ONE, BOOL)), reindex.component(BOOL)]
    if not F.has_upset_nodes(ast):
        outs += [inst.on_map(EP_B3.e), inst.on_map(EP_B3.p)]
    assert all(len(out.dom) and len(out.cod) for out in outs)


# --------------------------------------------------------------------------
# relation lifting


def test_rel_lift_on_identity_functor_is_the_relation():
    inst = pointed("Id")
    pairs = {("bot", "bot"), ("bot", "top"), ("top", "top")}
    lifted = F.rel_lift(inst, pairs, BOOL, BOOL)
    assert lifted == pairs


def test_rel_lift_sum_tags_never_mix():
    inst = F.instantiate("Id + W", F.Backend.PLAIN, P.discrete(["w"]), P.discrete(["w"]))
    x = P.discrete(["x"])
    fx = inst.on_object(x)
    full = {("x", "x")}
    lifted = F.rel_lift(inst, full, x, x)
    assert (("inl", "x"), ("inr", "w")) not in lifted
    assert (("inl", "x"), ("inl", "x")) in lifted


def test_rel_lift_egli_milner_with_identity_is_equality():
    inst = pointed("Us(Id)")
    flat = P.lift(P.discrete(["s", "t"]))
    ident = {(e, e) for e in flat.elements}
    lifted = F.rel_lift(inst, ident, flat, flat)
    fx = inst.on_object(flat)
    assert lifted == {(u, u) for u in fx.elements}


def test_rel_lift_monotone_in_relation():
    inst = pointed("U(Id)")
    flat = P.lift(P.discrete(["s", "t"]))
    small = {(e, e) for e in flat.elements}
    big = small | {(flat.bottom, ("lup", "s"))}
    assert F.rel_lift(inst, small, flat, flat) <= F.rel_lift(inst, big, flat, flat)


# --------------------------------------------------------------------------
# coalgebra validation


def test_coalgebra_spec_validates_membership_and_strictness():
    inst = pointed("Us(Id)")
    flat = P.lift(P.discrete(["s"]))
    stuck = ("upset", ())
    coalg = F.CoalgebraSpec(inst, flat, {flat.bottom: stuck, ("lup", "s"): stuck})
    assert coalg.as_map().strict
    with pytest.raises(Exception):
        F.CoalgebraSpec(inst, flat, {flat.bottom: stuck})
    with pytest.raises(Exception):
        F.CoalgebraSpec(
            inst, flat,
            {flat.bottom: ("upset", (("lup", "s"),)), ("lup", "s"): stuck},
        )
