"""Mixed-variance behaviour-family expressions and their instantiation.

An expression denotes a family F(V, W) of endofunctors on finite posets:
V sits in contravariant (input) position and may only appear as the domain
of an arrow, W in covariant (output) position.  `instantiate` fixes V, W
and a backend and yields an executable action on objects, on ep-pairs, and
(for the upset-free fragment) on plain monotone maps.

Concrete syntax::

    expr := 'Id' | 'V' | 'W' | NAME
          | expr '+' expr | expr '*' expr
          | '(' dom '->' expr ')' | '(' dom '-!>' expr ')'
          | 'U(' expr ')' | 'Us(' expr ')' | 'Lift(' expr ')'
    dom  := 'V' | NAME

'*' binds tighter than '+', arrows require parentheses, and 'Bool' names
the two-point lattice.  '+' means the coalesced sum in the pointed-strict
backend and the separated sum in the plain backend.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

import numpy as np

from . import posets
from .errors import (
    BackendMismatch,
    ExprSyntaxError,
    NotCovariant,
    NotPointed,
    UnknownConstant,
    VarianceError,
)
from .posets import (
    CBOT,
    LBOT,
    EpPair,
    FinPoset,
    MonoMap,
    coalesced_sum,
    fun_space,
    identity_ep,
    lift,
    product,
    separated_sum,
    strict_fun_space,
    strict_upsets,
    upsets,
)

RESERVED = {"Id", "V", "W", "U", "Us", "Lift"}


# --------------------------------------------------------------------------
# expression AST


@dataclass(frozen=True)
class ConstP:
    name: str
    poset: FinPoset


@dataclass(frozen=True)
class IdF:
    pass


@dataclass(frozen=True)
class ParamV:
    pass


@dataclass(frozen=True)
class ParamW:
    pass


@dataclass(frozen=True)
class Sum:
    left: object
    right: object


@dataclass(frozen=True)
class Prod:
    left: object
    right: object


@dataclass(frozen=True)
class LiftF:
    inner: object


@dataclass(frozen=True)
class Fun:
    dom: object  # ConstP | ParamV
    cod: object


@dataclass(frozen=True)
class StrictFun:
    dom: object
    cod: object


@dataclass(frozen=True)
class Upset:
    inner: object


@dataclass(frozen=True)
class StrictUpset:
    inner: object


def subexprs(expr):
    yield expr
    if isinstance(expr, (Sum, Prod)):
        yield from subexprs(expr.left)
        yield from subexprs(expr.right)
    elif isinstance(expr, LiftF):
        yield from subexprs(expr.inner)
    elif isinstance(expr, (Fun, StrictFun)):
        yield from subexprs(expr.dom)
        yield from subexprs(expr.cod)
    elif isinstance(expr, (Upset, StrictUpset)):
        yield from subexprs(expr.inner)


def validate_variance(expr, in_dom=False):
    """ParamV only as an arrow domain; W/Id never in domain position."""
    if isinstance(expr, ParamV):
        if not in_dom:
            raise VarianceError("'V' may only appear as an arrow domain")
        return
    if in_dom:
        if isinstance(expr, ConstP):
            return
        raise VarianceError("arrow domains are restricted to 'V' or a constant")
    if isinstance(expr, (Sum, Prod)):
        validate_variance(expr.left)
        validate_variance(expr.right)
    elif isinstance(expr, LiftF):
        validate_variance(expr.inner)
    elif isinstance(expr, (Fun, StrictFun)):
        validate_variance(expr.dom, in_dom=True)
        validate_variance(expr.cod)
    elif isinstance(expr, (Upset, StrictUpset)):
        validate_variance(expr.inner)


def has_upset_nodes(expr):
    return any(isinstance(e, (Upset, StrictUpset)) for e in subexprs(expr))


def has_strict_nodes(expr):
    return any(isinstance(e, (StrictFun, StrictUpset)) for e in subexprs(expr))


# --------------------------------------------------------------------------
# concrete syntax

_TOKEN = re.compile(r"\s*(->|-!>|[+*()]|[A-Za-z_][A-Za-z0-9_]*)")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ExprSyntaxError(f"bad character at {text[pos:pos+10]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, constants):
        self.tokens = tokens
        self.pos = 0
        self.constants = constants

    def peek(self, k=0):
        i = self.pos + k
        return self.tokens[i] if i < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise ExprSyntaxError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def const(self, name):
        if name not in self.constants:
            raise UnknownConstant(f"unknown constant {name!r}")
        return ConstP(name, self.constants[name])

    def parse_expr(self):
        node = self.parse_prod()
        while self.peek() == "+":
            self.take()
            node = Sum(node, self.parse_prod())
        return node

    def parse_prod(self):
        node = self.parse_atom()
        while self.peek() == "*":
            self.take()
            node = Prod(node, self.parse_atom())
        return node

    def parse_atom(self):
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of expression")
        if tok in ("U", "Us", "Lift"):
            self.take()
            self.take("(")
            inner = self.parse_expr()
            self.take(")")
            return {"U": Upset, "Us": StrictUpset, "Lift": LiftF}[tok](inner)
        if tok == "(":
            self.take()
            node = self.parse_paren()
            self.take(")")
            return node
        if tok == "Id":
            self.take()
            return IdF()
        if tok == "W":
            self.take()
            return ParamW()
        if tok == "V":
            raise VarianceError("'V' may only appear as an arrow domain")
        if tok in ("+", "*", ")", "->", "-!>"):
            raise ExprSyntaxError(f"unexpected {tok!r}")
        self.take()
        return self.const(tok)

    def parse_paren(self):
        # lookahead for the arrow form "dom -> expr" / "dom -!> expr"
        if self.peek(1) in ("->", "-!>"):
            dom_tok = self.take()
            arrow = self.take()
            if dom_tok == "V":
                dom = ParamV()
            elif dom_tok in ("Id", "W") or dom_tok in ("U", "Us", "Lift"):
                raise VarianceError(
                    f"{dom_tok!r} cannot appear in contravariant (domain) position"
                )
            else:
                dom = self.const(dom_tok)
            cod = self.parse_expr()
            return Fun(dom, cod) if arrow == "->" else StrictFun(dom, cod)
        return self.parse_expr()


def parse(text, constants=None):
    """Parse concrete syntax into an expression AST.

    `constants` maps names to posets; 'Bool' is always available.
    """
    table = {"Bool": posets.boolean_lattice()}
    if constants:
        for name in constants:
            if name in RESERVED:
                raise ExprSyntaxError(f"constant name {name!r} is reserved")
        table.update(constants)
    parser = _Parser(_tokenize(text), table)
    expr = parser.parse_expr()
    if parser.pos != len(parser.tokens):
        raise ExprSyntaxError(f"trailing input at {parser.tokens[parser.pos]!r}")
    validate_variance(expr)
    return expr


def pretty(expr):
    """Concrete syntax for an AST; parse(pretty(e)) == e."""
    return _pretty(expr, 0)


def _pretty(expr, level):
    if isinstance(expr, IdF):
        return "Id"
    if isinstance(expr, ParamV):
        return "V"
    if isinstance(expr, ParamW):
        return "W"
    if isinstance(expr, ConstP):
        return expr.name
    if isinstance(expr, Sum):
        s = f"{_pretty(expr.left, 1)} + {_pretty(expr.right, 2)}"
        return f"({s})" if level > 1 else s
    if isinstance(expr, Prod):
        s = f"{_pretty(expr.left, 2)} * {_pretty(expr.right, 3)}"
        return f"({s})" if level > 2 else s
    if isinstance(expr, LiftF):
        return f"Lift({_pretty(expr.inner, 0)})"
    if isinstance(expr, Upset):
        return f"U({_pretty(expr.inner, 0)})"
    if isinstance(expr, StrictUpset):
        return f"Us({_pretty(expr.inner, 0)})"
    if isinstance(expr, (Fun, StrictFun)):
        arrow = "->" if isinstance(expr, Fun) else "-!>"
        return f"({_pretty(expr.dom, 0)} {arrow} {_pretty(expr.cod, 0)})"
    raise TypeError(f"not an expression node: {expr!r}")


# --------------------------------------------------------------------------
# backends and instances


class Backend(enum.Enum):
    POINTED_STRICT = "pointed-strict"
    PLAIN = "plain"


def _default_sum_mode(backend):
    return "coalesced" if backend is Backend.POINTED_STRICT else "separated"


class FunctorInstance:
    """An expression instantiated at concrete parameter posets.

    Acts on objects (`on_object`), on ep-pairs (`on_ep`, defined for the
    whole grammar), and on plain monotone maps (`on_map`, defined for the
    upset-free fragment; function spaces act by post-composition).
    """

    def __init__(self, expr, backend, v, w, element_cap=posets.DEFAULT_ELEMENT_CAP,
                 sum_mode=None):
        validate_variance(expr)
        self.expr = expr
        self.backend = backend
        self.v = v
        self.w = w
        self.element_cap = element_cap
        self.sum_mode = sum_mode or _default_sum_mode(backend)
        if backend is Backend.POINTED_STRICT:
            v.require_pointed("pointed-strict backend parameter V")
            w.require_pointed("pointed-strict backend parameter W")
            for node in subexprs(expr):
                if isinstance(node, ConstP) and not node.poset.is_pointed:
                    raise NotPointed(
                        f"constant {node.name!r} must be pointed in this backend"
                    )
        else:
            if has_strict_nodes(expr):
                raise BackendMismatch(
                    "strict arrows and strict upsets need the pointed backend"
                )
        self._obj_memo = {}

    def signature(self):
        return (self.expr, self.backend, self.v, self.w, self.sum_mode)

    def same_instance(self, other):
        return self.signature() == other.signature()

    def __repr__(self):
        return f"FunctorInstance({pretty(self.expr)!r}, {self.backend.value})"

    # -- object action ------------------------------------------------

    def _check_state(self, p):
        if self.backend is Backend.POINTED_STRICT and not p.is_pointed:
            raise BackendMismatch("state object must be pointed in this backend")

    def on_object(self, p):
        self._check_state(p)
        return self._obj(self.expr, p)

    def _obj(self, node, p):
        key = (node, p)
        hit = self._obj_memo.get(key)
        if hit is not None:
            return hit
        out = self._obj_raw(node, p)
        self._obj_memo[key] = out
        return out

    def _obj_raw(self, node, p):
        cap = self.element_cap
        if isinstance(node, ConstP):
            return node.poset
        if isinstance(node, IdF):
            return p
        if isinstance(node, ParamW):
            return self.w
        if isinstance(node, ParamV):
            raise VarianceError("'V' has no direct object action")
        if isinstance(node, Sum):
            l = self._obj(node.left, p)
            r = self._obj(node.right, p)
            if self.sum_mode == "coalesced":
                return coalesced_sum(l, r, cap)
            return separated_sum(l, r, cap)
        if isinstance(node, Prod):
            return product(self._obj(node.left, p), self._obj(node.right, p), cap)
        if isinstance(node, LiftF):
            return lift(self._obj(node.inner, p), cap)
        if isinstance(node, Fun):
            dom = self.v if isinstance(node.dom, ParamV) else node.dom.poset
            return fun_space(dom, self._obj(node.cod, p), cap)
        if isinstance(node, StrictFun):
            dom = self.v if isinstance(node.dom, ParamV) else node.dom.poset
            return strict_fun_space(dom, self._obj(node.cod, p), cap)
        if isinstance(node, Upset):
            return upsets(self._obj(node.inner, p), cap)
        if isinstance(node, StrictUpset):
            return strict_upsets(self._obj(node.inner, p), cap)
        raise TypeError(f"not an expression node: {node!r}")

    # -- ep action ----------------------------------------------------

    def on_ep(self, ep):
        """The instance's action on an ep-pair between state objects."""
        return functor_ep(self.expr, self, self, ep, None)

    # -- plain map action (upset-free fragment) ------------------------

    def on_map(self, f):
        """Covariant action on a plain monotone map between states.

        Function spaces (including those with domain V) act by
        post-composition; upset nodes have no action on plain maps.
        """
        if has_upset_nodes(self.expr):
            raise NotCovariant("upset nodes act on ep-pairs only")
        self._check_state(f.dom)
        self._check_state(f.cod)
        dom, cod = self.on_object(f.dom), self.on_object(f.cod)
        table = _act(self.expr, self, self, f.dom, f.cod, f.table, None, None, None)
        return MonoMap.auto_strict(dom, cod, table)


def instantiate(expr, backend, v, w, element_cap=posets.DEFAULT_ELEMENT_CAP,
                sum_mode=None):
    """Instantiate an expression (text or AST) at parameter posets V, W."""
    if isinstance(expr, str):
        expr = parse(expr)
    return FunctorInstance(expr, backend, v, w, element_cap, sum_mode)


# --------------------------------------------------------------------------
# the shared mixed-variance ep action


def functor_ep(expr, src, dst, state_ep, param_ep):
    """Ep-pair F_src(X) -> F_dst(Y) from a state ep X -> Y and an optional
    parameter ep (src parameters -> dst parameters).

    With param_ep=None this is the endofunctor action on ep-pairs; with the
    identity state ep it is the reindexing transformation between the two
    parameter instantiations; with both it is the diagonal used to build
    the vertical chains of the outer iteration.
    """
    if param_ep is None and (src.v != dst.v or src.w != dst.w):
        raise BackendMismatch("parameter ep required when parameters differ")
    x, y = state_ep.dom, state_ep.cod
    se, sp = state_ep.e.table, state_ep.p.table
    pe, pp = (None, None) if param_ep is None else (param_ep.e.table, param_ep.p.table)
    src_obj = src.on_object(x)
    dst_obj = dst.on_object(y)
    e = MonoMap.auto_strict(src_obj, dst_obj, _act(expr, src, dst, x, y, se, sp, pe, pp))
    p = MonoMap.auto_strict(dst_obj, src_obj, _act(expr, dst, src, y, x, sp, se, pp, pe))
    return EpPair(e, p)


def _act(node, a, b, xa, xb, f, g, pf, pg):
    """Index table F_a(xa) -> F_b(xb) of the action on a state map.

    `f` is the state map's table xa -> xb and `g` the opposite one, or None
    for a plain map.  `pf` and `pg` are the parameter maps' tables a -> b and
    b -> a, or None for the identity.  Every table follows the index layouts
    of the `posets` constructors; nodes with index rows (arrows, upsets) are
    mapped row-wise and looked up in the destination object.
    """
    args = (a, b, xa, xb, f, g, pf, pg)
    if isinstance(node, ConstP):
        return np.arange(len(node.poset), dtype=np.int32)
    if isinstance(node, IdF):
        return f
    if isinstance(node, ParamW):
        return np.arange(len(a.w), dtype=np.int32) if pf is None else pf
    if isinstance(node, Sum) and a.sum_mode == "coalesced":
        return np.concatenate([
            [0],
            _summand(node.left, 1, *args),
            _summand(node.right, len(b._obj(node.left, xb)), *args),
        ])
    if isinstance(node, (Sum, Prod)):
        lt, rt = _act(node.left, *args), _act(node.right, *args)
        if isinstance(node, Prod):
            return (lt[:, None] * len(b._obj(node.right, xb)) + rt).ravel()
        return np.concatenate([lt, rt + len(b._obj(node.left, xb))])
    if isinstance(node, LiftF):
        return np.concatenate([[0], _act(node.inner, *args) + 1])
    if isinstance(node, (Fun, StrictFun)):
        rows = _act(node.cod, *args)[a._obj(node, xa).rows]
        if isinstance(node.dom, ParamV) and pg is not None:
            # contravariant parameter slot: precompose with the opposite map
            rows = rows[:, pg]
        return b._obj(node, xb).locate(rows)
    if isinstance(node, (Upset, StrictUpset)):
        if g is None:
            raise NotCovariant("upset nodes act on ep-pairs only")
        back = _act(node.inner, b, a, xb, xa, g, f, pg, pf)
        return b._obj(node, xb).locate(a._obj(node, xa).rows[:, back])
    raise TypeError(f"not an expression node: {node!r}")


def _summand(node, off, a, b, xa, xb, f, g, pf, pg):
    """A coalesced summand's table with both bottoms dropped, placed at `off`.

    Only the summand's other elements occur in the sum, so a one-point
    summand is not mapped at all: under a non-strict plain map its image
    need not exist.
    """
    a_side, b_side = a._obj(node, xa), b._obj(node, xb)
    if len(a_side) == 1:
        return np.zeros(0, dtype=np.int32)
    t = np.delete(_act(node, a, b, xa, xb, f, g, pf, pg), a_side.bottom_idx)
    bot = b_side.bottom_idx
    return np.where(t == bot, 0, off + t - (t > bot))


class Reindex:
    """The natural family F(Z,Z)(P) -> F(Z',Z')(P) induced by an ep Z -> Z'.

    Embeddings precompose arrow domains with the parameter projection and
    act covariantly elsewhere; projections do the opposite.
    """

    def __init__(self, expr, backend, ep_param, element_cap=posets.DEFAULT_ELEMENT_CAP,
                 sum_mode=None):
        if isinstance(expr, str):
            expr = parse(expr)
        self.expr = expr
        self.ep_param = ep_param
        self.src = FunctorInstance(
            expr, backend, ep_param.dom, ep_param.dom, element_cap, sum_mode
        )
        self.dst = FunctorInstance(
            expr, backend, ep_param.cod, ep_param.cod, element_cap, sum_mode
        )

    def component(self, p):
        """The ep-pair at object p."""
        return functor_ep(self.expr, self.src, self.dst, identity_ep(p), self.ep_param)


def reindex_ep(expr, backend, ep_param, element_cap=posets.DEFAULT_ELEMENT_CAP,
               sum_mode=None):
    return Reindex(expr, backend, ep_param, element_cap, sum_mode)


# --------------------------------------------------------------------------
# coalgebras


class CoalgebraSpec:
    """A finite coalgebra: a carrier and an elementwise structure map into
    the instance's value object over that carrier.

    Validation checks that every structure value is an element of
    F(carrier) and that the assignment is monotone (and bottom-strict in
    the pointed backend, where coalgebras are strict maps).
    """

    def __init__(self, inst, carrier, structure):
        inst._check_state(carrier)
        self.inst = inst
        self.carrier = carrier
        self.functor_obj = inst.on_object(carrier)
        if set(structure) != set(carrier.elements):
            raise BackendMismatch("structure must assign exactly the carrier elements")
        self.structure = dict(structure)
        table = np.array(
            [self.functor_obj.index(self.structure[e]) for e in carrier.elements],
            dtype=np.int32,
        )
        strict = inst.backend is Backend.POINTED_STRICT
        self._map = MonoMap(carrier, self.functor_obj, table, strict=strict)

    def as_map(self):
        return self._map

    def value(self, state):
        return self.structure[state]

    def __repr__(self):
        return f"CoalgebraSpec({len(self.carrier)} states over {pretty(self.inst.expr)!r})"


# --------------------------------------------------------------------------
# relation lifting


def lifted_related(inst, pairs, v1, v2, param_rel=None):
    """Are two structured values related under the structural lifting of
    `pairs`?  `param_rel`, when given, replaces tag equality at parameter
    positions (quotient-parameterised lifting)."""
    return _lift_rec(inst, inst.expr, pairs, v1, v2, param_rel)


def _lift_rec(inst, node, pairs, v1, v2, param_rel):
    if isinstance(node, ConstP):
        return v1 == v2
    if isinstance(node, IdF):
        return (v1, v2) in pairs
    if isinstance(node, ParamW):
        if param_rel is not None:
            return (v1, v2) in param_rel
        return v1 == v2
    if isinstance(node, Sum):
        if inst.sum_mode == "coalesced" and (v1 == CBOT or v2 == CBOT):
            return v1 == v2
        if v1[0] != v2[0]:
            return False
        sub = node.left if v1[0] == "inl" else node.right
        return _lift_rec(inst, sub, pairs, v1[1], v2[1], param_rel)
    if isinstance(node, Prod):
        return _lift_rec(
            inst, node.left, pairs, v1[1], v2[1], param_rel
        ) and _lift_rec(inst, node.right, pairs, v1[2], v2[2], param_rel)
    if isinstance(node, LiftF):
        if v1 == LBOT or v2 == LBOT:
            return v1 == v2
        return _lift_rec(inst, node.inner, pairs, v1[1], v2[1], param_rel)
    if isinstance(node, (Fun, StrictFun)):
        t1, t2 = v1[1], v2[1]
        if isinstance(node.dom, ParamV) and param_rel is not None:
            idx = inst.v.index
            return all(
                _lift_rec(inst, node.cod, pairs, t1[idx(p)], t2[idx(q)], param_rel)
                for (p, q) in param_rel
            )
        return all(
            _lift_rec(inst, node.cod, pairs, a, b, param_rel)
            for a, b in zip(t1, t2)
        )
    if isinstance(node, (Upset, StrictUpset)):
        s1, s2 = v1[1], v2[1]
        fwd = all(
            any(_lift_rec(inst, node.inner, pairs, a, b, param_rel) for b in s2)
            for a in s1
        )
        if not fwd:
            return False
        return all(
            any(_lift_rec(inst, node.inner, pairs, a, b, param_rel) for a in s1)
            for b in s2
        )
    raise TypeError(f"not an expression node: {node!r}")


def rel_lift(inst, pairs, x, y, param_rel=None):
    """Materialised structural lifting: the set of related pairs between
    the elements of F(x) and F(y)."""
    fx = inst.on_object(x)
    fy = inst.on_object(y)
    return {
        (a, b)
        for a in fx.elements
        for b in fy.elements
        if lifted_related(inst, pairs, a, b, param_rel)
    }
