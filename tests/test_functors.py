"""Functor DSL checks: syntax, variance, instantiation, the three actions,
reindexing laws, relation lifting, coalgebra validation."""

import random

import numpy as np
import pytest

from nufix import functors as F
from nufix import kernels as K
from nufix import posets as P
from nufix.errors import (
    BackendMismatch,
    DomainMismatch,
    ExprSyntaxError,
    InputError,
    InstanceMismatch,
    NotCovariant,
    NotPointed,
    UnknownConstant,
    VarianceError,
)
from nufix.laws import random_ep_chain

from generators import from_tags


ONE = P.unit()
BOOL = P.boolean_lattice()
C3 = P.chain(3)
# Bool into the chain c0 < c1 < c2: top goes to the top, c1 projects down
EP_B3 = P.EpPair(
    from_tags(BOOL, C3, {"bot": "c0", "top": "c2"}),
    from_tags(C3, BOOL, {"c0": "bot", "c1": "bot", "c2": "top"}),
)
HO_CCS_BODY = "C * W * Id + C * (V -> Id) + Id"


def pointed(expr, v=ONE, w=ONE, constants=None, cap=6000):
    ast = F.parse(expr, constants) if isinstance(expr, str) else expr
    return F.instantiate(ast, F.Backend.POINTED_STRICT, v, w, cap)


# --------------------------------------------------------------------------
# parsing


def test_parse_deterministic_family():
    ast = F.parse("(V -!> Id) + W")
    assert ast == F.Sum(F.Fun(F.ParamV(), F.IdF(), strict=True), F.ParamW())


def test_parse_ho_ccs_family():
    c = P.lift(P.discrete(["c"]))
    ast = F.parse("Us(C * W * Id + C * (V -> Id) + Id)", {"C": c})
    assert isinstance(ast, F.Upset) and ast.strict
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


# each expression has one property a backend may refuse, the rest lazy
ADMITS_CASES = {  # kind: (text, V, constant A); then the outcome per backend
    "no outer Lift": ("(V -> Id) + W", BOOL, BOOL),
    "upset node": ("Lift(U(Id) + W)", BOOL, BOOL),
    "strict node": ("Lift((V -!> Id) + W)", BOOL, BOOL),
    "unpointed parameter": ("Lift((V -> Id) + W)", P.discrete(["a"]), BOOL),
    "unpointed constant": ("Lift(A * Id + W)", BOOL, P.discrete(["a"])),
}
ADMITS = {
    F.Backend.POINTED_STRICT: [None, None, None, NotPointed, NotPointed],
    F.Backend.LAZY: [InputError, NotCovariant, InputError, NotPointed, NotPointed],
    F.Backend.PLAIN: [None, None, BackendMismatch, None, None],
}


@pytest.mark.parametrize("backend,kind,error", [
    (b, kind, error) for b, errors in ADMITS.items() for kind, error in zip(ADMITS_CASES, errors)
], ids=lambda x: x.value if isinstance(x, F.Backend) else None)
def test_backend_admits_at_construction(backend, kind, error):
    text, v, a = ADMITS_CASES[kind]
    build = lambda: F.FunctorInstance(F.parse(text, {"A": a}), backend, v, BOOL)  # noqa: E731
    if error is None:
        assert build().on_object(BOOL) is not None
    else:
        with pytest.raises(error):
            build()


@pytest.mark.parametrize("text", ["Us(Id)", "(V -!> Id)", "Lift(U(Id) * (Bool -!> Id))"])
def test_strict_flags_need_a_pointed_backend(text):
    assert F.has_strict_nodes(F.parse(text))
    assert not F.has_strict_nodes(F.parse(text.replace("Us", "U").replace("-!>", "->")))
    with pytest.raises(BackendMismatch):
        F.instantiate(text, F.Backend.PLAIN, BOOL, BOOL)


def test_sum_mode_per_backend():
    inst_p = pointed("Id + W", BOOL, BOOL)
    inst_q = F.instantiate("Id + W", F.Backend.PLAIN, BOOL, BOOL)
    assert len(inst_p.on_object(BOOL)) == 3  # coalesced
    assert len(inst_q.on_object(BOOL)) == 4  # separated
    inst_l = F.instantiate("Lift(Id + W)", F.Backend.LAZY, BOOL, BOOL)
    assert len(inst_l.on_object(BOOL)) == 5  # a lift of the separated sum
    assert len(pointed("Lift(Id + W)", BOOL, BOOL).on_object(BOOL)) == 4  # of the coalesced


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
    f = from_tags(BOOL, BOOL, {"bot": "bot", "top": "top"})
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


EMPTY = P.empty_poset()
FLAT = P.lift(P.discrete(["a", "b"]))
BATCH_CASES = [
    ("Id * (V -> Id)", F.Backend.POINTED_STRICT, BOOL),
    ("Lift(Id) + W", F.Backend.POINTED_STRICT, BOOL),
    ("Lift(Id * Id) + W", F.Backend.POINTED_STRICT, BOOL),
    ("(V -!> Id)", F.Backend.POINTED_STRICT, BOOL),
    ("(V -> Lift(Id))", F.Backend.POINTED_STRICT, BOOL),
    ("Id + W", F.Backend.PLAIN, BOOL),
    ("W", F.Backend.PLAIN, BOOL),
    ("Bool * Id", F.Backend.PLAIN, BOOL),
    ("(V -> Id)", F.Backend.PLAIN, EMPTY),
    ("(E -> Id) + Id", F.Backend.PLAIN, BOOL),
]


@pytest.mark.parametrize("text,backend,v", BATCH_CASES,
                         ids=[f"{t}-{b.value}" for t, b, _ in BATCH_CASES])
def test_on_tables_stacks_the_one_row_action(text, backend, v):
    inst = F.instantiate(F.parse(text, {"E": EMPTY}), backend, v, BOOL)
    strict = backend is F.Backend.POINTED_STRICT
    x, y = (FLAT, C3) if strict else (P.discrete(["a", "b"]), C3)
    tables = K.enum_monotone_tables(
        x.leq, y.leq, 100, (x.bottom_idx, y.bottom_idx) if strict else None)
    assert len(tables) >= 4
    size = len(inst.on_object(x))
    for k in (0, 1, len(tables)):
        out = inst.on_tables(x, y, tables[:k])
        assert out.shape == (k, size)
        for row, image in zip(tables[:k], out):
            one = F._act(inst.expr, inst.on_object(x), inst.on_object(y), row,
                         None, None, None)
            assert np.array_equal(image, one)
            assert np.array_equal(image, inst.on_map(P.MonoMap(x, y, row, strict)).table)
    two_axes = inst.on_tables(x, y, tables[:4].reshape(2, 2, len(x)))
    assert np.array_equal(two_axes.reshape(4, size), inst.on_tables(x, y, tables[:4]))


def test_actions_walk_the_operands_of_each_state():
    # each state's sum records that state's own operands, which the actions
    # walk in step with the expression
    inst = F.instantiate(F.parse("(E -> Lift(Id)) + W", {"E": EMPTY}), F.Backend.PLAIN,
                         BOOL, BOOL)
    small, big = P.chain(2), C3
    fs, fb = inst.on_object(small), inst.on_object(big)
    assert fs.children[0].children[1] == P.lift(small)
    assert inst.on_map(P.MonoMap(small, big, [0, 2])).table.tolist() == [0, 1, 2]
    related = F.lifted_related(inst, np.eye(2, 3, dtype=bool), small, big)
    assert np.array_equal(related, np.eye(3, dtype=bool))


def test_on_tables_checks_like_on_map():
    with pytest.raises(NotCovariant):
        pointed("Us(Id)").on_tables(ONE, ONE, np.zeros((2, 1), dtype=np.int32))
    with pytest.raises(BackendMismatch):
        pointed("Id").on_tables(P.discrete(["a"]), ONE, np.zeros((2, 1), dtype=np.int32))
    with pytest.raises(DomainMismatch):
        pointed("Id").on_tables(BOOL, BOOL, np.zeros((2, 3), dtype=np.int32))


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


def test_reindex_rejects_mismatched_instances():
    det, wide = F.parse("(V -!> Id) + W"), F.parse("(V -!> Id) + W + W")
    lazy = F.parse("Lift((V -> Id) + W)")

    def inst(z, expr=det, backend=F.Backend.POINTED_STRICT, cap=512, w=None):
        return F.FunctorInstance(expr, backend, z, z if w is None else w, cap)

    ep = P.bottom_ep(ONE, BOOL)
    reindex = F.Reindex(inst(ONE), inst(BOOL), ep)
    assert reindex.component(BOOL).cod == reindex.dst.on_object(BOOL)
    bad = [
        (inst(BOOL), inst(ONE)),  # the ep's endpoints swapped
        (inst(ONE), inst(ONE)),  # dst not at the ep's codomain
        (inst(ONE, w=BOOL), inst(BOOL)),  # src's W is not the ep's domain
        (inst(ONE), inst(BOOL, w=C3)),  # dst's W is not the ep's codomain
        (inst(ONE), inst(BOOL, expr=wide)),
        (inst(ONE), inst(BOOL, cap=1024)),
        (inst(ONE, expr=lazy), inst(BOOL, expr=lazy, backend=F.Backend.LAZY)),
    ]
    for src, dst in bad:
        with pytest.raises(InstanceMismatch):
            F.Reindex(src, dst, ep)


def _counting_functor_ep(monkeypatch):
    calls = []
    real = F.functor_ep

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(F, "functor_ep", counting)
    return calls


def _tables(ep):
    return ep.e.table.tolist(), ep.p.table.tolist()


def test_on_ep_memo_hits_equal_eps_and_misses_other_tables(monkeypatch):
    calls = _counting_functor_ep(monkeypatch)
    inst = pointed("(V -!> Id) + W + Us(Id)", BOOL, BOOL)
    c3_again = P.chain(3)
    bool_again = P.boolean_lattice()
    twin = P.EpPair(P.MonoMap(bool_again, c3_again, EP_B3.e.table),
                    P.MonoMap(c3_again, bool_again, EP_B3.p.table))
    first = inst.on_ep(EP_B3)
    assert inst.on_ep(twin) is first and len(calls) == 1  # equal, distinct objects
    # the same endpoints with other tables: top goes to c1, c2 projects to top
    other = P.EpPair(P.MonoMap(BOOL, C3, [0, 1]), P.MonoMap(C3, BOOL, [0, 1, 1]))
    # the same tables between other (equal-order, differently tagged) posets
    renamed = P.chain(3, prefix="d")
    moved = P.EpPair(P.MonoMap(BOOL, renamed, EP_B3.e.table),
                     P.MonoMap(renamed, BOOL, EP_B3.p.table))
    for ep in (other, moved):
        got = inst.on_ep(ep)
        assert got is not first
        fresh = F.functor_ep(inst.expr, inst, inst, ep, None)
        assert _tables(got) == _tables(fresh) and got.cod == fresh.cod
    assert _tables(inst.on_ep(other)) != _tables(first)
    assert inst.on_ep(moved).cod != first.cod
    assert len(calls) == 5  # one per distinct ep, plus the two fresh ones


def test_reindex_component_memo_hits_equal_stages(monkeypatch):
    calls = _counting_functor_ep(monkeypatch)
    reindex = F.reindex_ep("(V -!> Id) + W", F.Backend.POINTED_STRICT, EP_B3)
    first = reindex.component(BOOL)
    assert reindex.component(P.boolean_lattice()) is first
    assert reindex.component(C3) is not first
    assert len(calls) == 2


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


def _lift_by_tags(inst, node, pairs, v1, v2, param_rel):
    """Reference lifting: take the two values' nested tags apart."""
    rec = lambda node, a, b: _lift_by_tags(inst, node, pairs, a, b, param_rel)  # noqa: E731
    if isinstance(node, F.ConstP):
        return v1 == v2
    if isinstance(node, F.IdF):
        return (v1, v2) in pairs
    if isinstance(node, F.ParamW):
        return (v1, v2) in param_rel if param_rel is not None else v1 == v2
    if isinstance(node, F.Sum):
        if inst.backend is F.Backend.POINTED_STRICT and (v1 == P.CBOT or v2 == P.CBOT):
            return v1 == v2
        if v1[0] != v2[0]:
            return False
        return rec(node.left if v1[0] == "inl" else node.right, v1[1], v2[1])
    if isinstance(node, F.Prod):
        return rec(node.left, v1[1], v2[1]) and rec(node.right, v1[2], v2[2])
    if isinstance(node, F.LiftF):
        if v1 == P.LBOT or v2 == P.LBOT:
            return v1 == v2
        return rec(node.inner, v1[1], v2[1])
    if isinstance(node, F.Fun):
        t1, t2 = v1[1], v2[1]
        if isinstance(node.dom, F.ParamV) and param_rel is not None:
            idx = inst.v.index
            return all(rec(node.cod, t1[idx(p)], t2[idx(q)]) for p, q in param_rel)
        return all(rec(node.cod, a, b) for a, b in zip(t1, t2))
    s1, s2 = v1[1], v2[1]  # upsets: the Egli-Milner lifting
    return (all(any(rec(node.inner, a, b) for b in s2) for a in s1)
            and all(any(rec(node.inner, a, b) for a in s1) for b in s2))


TWO = P.discrete(["x", "y"])
REV = P.validate_poset(["t", "m", "b"], [("b", "m"), ("m", "t")], "b")  # bottom last
LIFT_CASES = [  # every node kind; x and y differ in size so swapped axes show
    ("Bool * Id", F.Backend.POINTED_STRICT, BOOL, FLAT, C3),
    ("Lift(Id) + W", F.Backend.POINTED_STRICT, REV, FLAT, C3),
    ("One + Id + W", F.Backend.POINTED_STRICT, BOOL, BOOL, REV),
    ("(V -!> Id) * W", F.Backend.POINTED_STRICT, BOOL, BOOL, C3),
    ("(V -> Lift(Id))", F.Backend.POINTED_STRICT, BOOL, BOOL, FLAT),
    ("(Bool -> Id)", F.Backend.POINTED_STRICT, BOOL, BOOL, C3),
    ("U(Id)", F.Backend.POINTED_STRICT, BOOL, BOOL, FLAT),
    ("Us(Lift(Id) + W)", F.Backend.POINTED_STRICT, BOOL, BOOL, FLAT),
    ("Us(One) + Id", F.Backend.POINTED_STRICT, BOOL, REV, C3),
    ("Id + W", F.Backend.PLAIN, TWO, P.discrete(["a"]), C3),
    ("(V -> Id) + W", F.Backend.PLAIN, TWO, TWO, C3),
    ("Lift(Id * W) + Id", F.Backend.PLAIN, TWO, TWO, P.discrete(["a"])),
    ("(E -> Id) * (V -> W)", F.Backend.PLAIN, TWO, TWO, C3),
    ("U(Id) + U(E)", F.Backend.PLAIN, TWO, TWO, C3),
    ("U(Id * W)", F.Backend.PLAIN, TWO, EMPTY, TWO),
    ("(V -> Id) + Id", F.Backend.PLAIN, TWO, EMPTY, EMPTY),
]


@pytest.mark.parametrize("text,backend,v,x,y", LIFT_CASES,
                         ids=[f"{t}-{b.value}" for t, b, *_ in LIFT_CASES])
def test_lifted_related_matches_the_tag_walk(text, backend, v, x, y):
    inst = F.instantiate(F.parse(text, {"E": EMPTY, "One": ONE}), backend, v, v)
    fx, fy = inst.on_object(x), inst.on_object(y)
    rng = np.random.RandomState(len(fx) * 31 + len(fy))
    for batch in [(), (0,), (1,), (5,), (2, 3)]:
        for with_param in (False, True):
            param_rel = None
            if with_param:
                param_rel = {(p, q) for p in v.elements for q in v.elements
                             if p == q or rng.rand() < 0.4}
            rel = rng.rand(*batch, len(x), len(y)) < 0.6
            got = F.lifted_related(inst, rel, x, y, param_rel)
            assert got.dtype == np.bool_ and got.shape == batch + (len(fx), len(fy))
            for idx in np.ndindex(*batch):
                pairs = {(x.elements[i], y.elements[j]) for i, j in np.argwhere(rel[idx])}
                want = [[_lift_by_tags(inst, inst.expr, pairs, a, b, param_rel)
                         for b in fy.elements] for a in fx.elements]
                assert got[idx].tolist() == want


def test_lifted_related_checks_the_relation_shape():
    with pytest.raises(DomainMismatch):
        F.lifted_related(pointed("Id"), np.ones((3, 2), dtype=np.bool_), BOOL, BOOL)


def test_a_pair_outside_the_carriers_is_refused():
    inst = F.instantiate("(V -> Id) + W", F.Backend.PLAIN, BOOL, BOOL)
    ident = {(e, e) for e in BOOL.elements}
    with pytest.raises(InputError):
        F.lifted_related(inst, np.eye(2, dtype=np.bool_), BOOL, BOOL, ident | {("bot", "ghost")})
    with pytest.raises(InputError):
        F.rel_lift(inst, ident | {("ghost", "top")}, BOOL, BOOL)
    with pytest.raises(InputError):
        F.rel_lift(inst, ident, BOOL, BOOL, {("top", "ghost")})


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

