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
backend and the separated sum in the lazy and plain backends.

Strictness is a field, not a node kind: `Fun(dom, cod, strict)` is '->'
or, strict, '-!>' (bottom-strict tables), and `Upset(inner, strict)` is
'U' or, strict, 'Us' (only the upsets that miss the bottom).  Strict
nodes need a pointed backend.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import posets
from .errors import (
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
from .posets import (
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
# the most operator nodes on a path from an expression's root to a leaf, and
# the most parentheses open at once; the parser and every action recurse
# along that path, at most four frames a level
MAX_EXPR_DEPTH = 200


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
    strict: bool = False  # '-!>': bottom-strict tables only


@dataclass(frozen=True)
class Upset:
    inner: object
    strict: bool = False  # 'Us': only the upsets that miss the bottom


def _operands(node):
    """A node's operand nodes, in order."""
    if isinstance(node, (Sum, Prod)):
        return node.left, node.right
    if isinstance(node, Fun):
        return node.dom, node.cod
    return (node.inner,) if isinstance(node, (LiftF, Upset)) else ()


def _depth(expr):
    """The most operator nodes on a path from the root to a leaf, counted a
    level at a time, so that no recursion limit bounds the count."""
    depth, level = -1, [expr]
    while level:
        depth, level = depth + 1, [op for node in level for op in _operands(node)]
    return depth


def _too_deep():
    return ExprSyntaxError(f"expression nested more than {MAX_EXPR_DEPTH} deep")


def subexprs(expr):
    yield expr
    for operand in _operands(expr):
        yield from subexprs(operand)


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
    elif isinstance(expr, Fun):
        validate_variance(expr.dom, in_dom=True)
        validate_variance(expr.cod)
    elif isinstance(expr, Upset):
        validate_variance(expr.inner)


def has_upset_nodes(expr):
    return any(isinstance(e, Upset) for e in subexprs(expr))


def has_strict_nodes(expr):
    return any(isinstance(e, (Fun, Upset)) and e.strict for e in subexprs(expr))


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
            return LiftF(inner) if tok == "Lift" else Upset(inner, tok == "Us")
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
            return Fun(dom, cod, arrow == "-!>")
        return self.parse_expr()


def parse(text, constants=None):
    """Parse concrete syntax into an expression AST.

    `constants` maps names to posets; 'Bool' is always available.  Input
    nested past `MAX_EXPR_DEPTH` raises `ExprSyntaxError`.
    """
    table = {"Bool": posets.boolean_lattice()}
    if constants:
        for name in constants:
            if name in RESERVED:
                raise ExprSyntaxError(f"constant name {name!r} is reserved")
        table.update(constants)
    tokens = _tokenize(text)
    if max(accumulate((t == "(") - (t == ")") for t in tokens), default=0) > MAX_EXPR_DEPTH:
        raise _too_deep()  # before the parser recurses into them
    parser = _Parser(tokens, table)
    expr = parser.parse_expr()
    if parser.pos != len(parser.tokens):
        raise ExprSyntaxError(f"trailing input at {parser.tokens[parser.pos]!r}")
    if _depth(expr) > MAX_EXPR_DEPTH:  # a chain of n sums or products nests n - 1 deep
        raise _too_deep()
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
        return f"{'Us' if expr.strict else 'U'}({_pretty(expr.inner, 0)})"
    if isinstance(expr, Fun):
        arrow = "-!>" if expr.strict else "->"
        return f"({_pretty(expr.dom, 0)} {arrow} {_pretty(expr.cod, 0)})"
    raise TypeError(f"not an expression node: {expr!r}")


# --------------------------------------------------------------------------
# backends and instances


class Backend(enum.Enum):
    """How an instance reads an expression, and what it admits: POINTED_STRICT
    (pointed posets, strict maps, coalesced sums; the outer iteration), LAZY
    (the same with separated sums, admitting only lazy families: an outermost
    Lift over a body with no upset and no strict nodes; the mediator's
    pointed side) and PLAIN (any posets, monotone maps, separated sums, no
    strict nodes)."""

    POINTED_STRICT = "pointed-strict"
    LAZY = "lazy"
    PLAIN = "plain"

    @property
    def pointed(self):
        """Objects are pointed and maps (coalgebras among them) strict."""
        return self is not Backend.PLAIN


class FunctorInstance:
    """An expression instantiated at concrete parameter posets.

    Acts on objects (`on_object`), on ep-pairs (`on_ep`, defined for the
    whole grammar), and on plain monotone maps (`on_map`, and `on_tables`
    for a stack of them at once; defined for the upset-free fragment,
    where function spaces act by post-composition).

    Objects and ep actions are memoized per instance, so one instance per
    parameter pair builds each F(X) and each F(e, p) once.  A memoized
    ep-pair was verified as a Galois insertion on its two tables
    (`EpPair.from_tables`) when it was built.
    """

    def __init__(self, expr, backend, v, w, element_cap=posets.DEFAULT_ELEMENT_CAP):
        validate_variance(expr)
        self.expr = expr
        self.backend = backend
        self.v = v
        self.w = w
        self.element_cap = element_cap
        if backend is Backend.LAZY:
            if not isinstance(expr, LiftF):
                raise InputError("lazy families carry an outermost Lift")
            if has_upset_nodes(expr):
                raise NotCovariant("upset nodes have no plain-map action")
            if has_strict_nodes(expr):
                raise InputError("lazy families use the plain-object grammar (no strict nodes)")
        if backend.pointed:
            v.require_pointed(f"{backend.value} backend parameter V")
            w.require_pointed(f"{backend.value} backend parameter W")
            for node in subexprs(expr):
                if isinstance(node, ConstP) and not node.poset.is_pointed:
                    raise NotPointed(
                        f"constant {node.name!r} must be pointed in this backend"
                    )
        elif has_strict_nodes(expr):
            raise BackendMismatch(
                "strict arrows and strict upsets need a pointed backend"
            )
        self._obj_memo = {}  # state -> F(state)
        self._ep_memo = {}
        self._upset_free = not has_upset_nodes(expr)  # on_tables needs it

    def signature(self):
        return (self.expr, self.backend, self.v, self.w)

    def same_instance(self, other):
        return self.signature() == other.signature()

    def __repr__(self):
        return f"FunctorInstance({pretty(self.expr)!r}, {self.backend.value})"

    # -- object action ------------------------------------------------

    def _check_state(self, p):
        if self.backend.pointed and not p.is_pointed:
            raise BackendMismatch("state object must be pointed in this backend")

    def on_object(self, p):
        self._check_state(p)
        return self._obj(p)

    def _obj(self, p):
        hit = self._obj_memo.get(p)
        if hit is None:
            hit = self._obj_memo[p] = self._build(self.expr, p)
        return hit

    def _build(self, node, p):
        """F(p) at `node`, built from its operands' objects at p."""
        if isinstance(node, ConstP):
            return node.poset
        if isinstance(node, IdF):
            return p
        if isinstance(node, ParamW):
            return self.w
        if isinstance(node, ParamV):
            raise VarianceError("'V' has no direct object action")
        if isinstance(node, Sum):
            build = coalesced_sum if self.backend is Backend.POINTED_STRICT else separated_sum
            args = (self._build(node.left, p), self._build(node.right, p))
        elif isinstance(node, Prod):
            build, args = product, (self._build(node.left, p), self._build(node.right, p))
        elif isinstance(node, LiftF):
            build, args = lift, (self._build(node.inner, p),)
        elif isinstance(node, Fun):
            build = strict_fun_space if node.strict else fun_space
            dom = self.v if isinstance(node.dom, ParamV) else node.dom.poset
            args = (dom, self._build(node.cod, p))
        elif isinstance(node, Upset):
            build = strict_upsets if node.strict else upsets
            args = (self._build(node.inner, p),)
        else:
            raise TypeError(f"not an expression node: {node!r}")
        return build(*args, self.element_cap)

    # -- ep action ----------------------------------------------------

    def on_ep(self, ep):
        """The instance's action on an ep-pair between state objects,
        memoized on its endpoints and both tables."""
        key = (ep.dom, ep.cod, ep.e.table.tobytes(), ep.p.table.tobytes())
        hit = self._ep_memo.get(key)
        if hit is None:
            hit = self._ep_memo[key] = functor_ep(self.expr, self, self, ep, None)
        return hit

    # -- plain map action (upset-free fragment) ------------------------

    def on_map(self, f):
        """Covariant action on a plain monotone map between states.

        Function spaces (including those with domain V) act by
        post-composition; upset nodes have no action on plain maps.  This
        is the one-row case of `on_tables`, validated as a `MonoMap`.
        """
        table = self.on_tables(f.dom, f.cod, f.table)
        return MonoMap.auto_strict(self.on_object(f.dom), self.on_object(f.cod), table)

    def on_tables(self, x, y, tables):
        """Index tables of F(f): F(x) -> F(y) for a stack of plain maps.

        `tables` holds monotone state-map tables x -> y with any leading
        batch axes, shape (..., |x|); the result has shape (..., |F(x)|).
        The tables are trusted: nothing is validated as a `MonoMap`.
        """
        if not self._upset_free:
            raise NotCovariant("upset nodes act on ep-pairs only")
        self._check_state(x)
        self._check_state(y)
        fx, fy = self._obj(x), self._obj(y)  # both under the cap
        tables = np.asarray(tables)
        if tables.shape[-1:] != (len(x),):
            raise DomainMismatch("table length does not match domain size")
        return _act(self.expr, fx, fy, tables, None, None, None)


def instantiate(expr, backend, v, w, element_cap=posets.DEFAULT_ELEMENT_CAP):
    """Instantiate an expression (text or AST) at parameter posets V, W."""
    if isinstance(expr, str):
        expr = parse(expr)
    return FunctorInstance(expr, backend, v, w, element_cap)


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
    fx, fy = src.on_object(x), dst.on_object(y)
    return EpPair.from_tables(fx, fy, _act(expr, fx, fy, se, sp, pe, pp),
                              _act(expr, fy, fx, sp, se, pp, pe))


def _act(node, fa, fb, f, g, pf, pg):
    """Index tables fa -> fb of the action on state maps, fa and fb being
    the node's objects at the two states, whose recorded children the walk
    follows in step with the expression.

    `f` holds state-map tables with any leading batch axes, shape
    (..., |state|); the result has shape (..., |fa|).  `g` is the opposite
    table, or None for plain maps.  `pf` and `pg` are the parameter maps'
    tables a -> b and b -> a, or None for the identity.  Arrows and upsets
    are mapped row-wise and looked up in fb; upsets act on ep-pairs only,
    which never stack, so they take a single table.
    """
    batch = f.shape[:-1]
    if isinstance(node, ConstP):
        return _const(np.arange(len(fa), dtype=np.int32), batch)
    if isinstance(node, IdF):
        return f
    if isinstance(node, ParamW):
        return _const(np.arange(len(fa), dtype=np.int32) if pf is None else pf, batch)
    if isinstance(node, (Sum, Prod, LiftF)):
        parts = _operands(node)
        return posets._map_parts(
            fa, fb, lambda k, ca, cb: _act(parts[k], ca, cb, f, g, pf, pg), batch)
    if isinstance(node, Fun):
        rows = _act(node.cod, fa.children[1], fb.children[1], f, g, pf, pg)[..., fa.rows]
        if isinstance(node.dom, ParamV) and pg is not None:
            # contravariant parameter slot: precompose with the opposite map
            rows = rows[..., pg]
        k, (r, d) = math.prod(batch), rows.shape[-2:]
        return fb.locate(rows.reshape(k * r, d)).reshape(batch + (r,))
    if isinstance(node, Upset):
        if g is None:
            raise NotCovariant("upset nodes act on ep-pairs only")
        back = _act(node.inner, fb.children[0], fa.children[0], g, f, pg, pf)
        return fb.locate(fa.rows[:, back])
    raise TypeError(f"not an expression node: {node!r}")


def _const(table, batch):
    """The same table for every state map of the batch."""
    return np.broadcast_to(table, batch + table.shape) if batch else table


class Reindex:
    """The natural family F(Z,Z)(P) -> F(Z',Z')(P) induced by an ep Z -> Z'.

    Embeddings precompose arrow domains with the parameter projection and
    act covariantly elsewhere; projections do the opposite.  `src` and
    `dst` are existing instances of one expression at Z and at Z', so the
    family shares their object and ep memos; its components are memoized
    on the stage poset.
    """

    def __init__(self, src, dst, ep_param):
        if not (src.v == src.w == ep_param.dom and dst.v == dst.w == ep_param.cod):
            raise InstanceMismatch(
                "reindexing instances must sit at the parameter ep's endpoints"
            )
        if (src.expr, src.backend, src.element_cap) != (dst.expr, dst.backend, dst.element_cap):
            raise InstanceMismatch("reindexing instances differ beyond their parameters")
        self.expr = src.expr
        self.ep_param = ep_param
        self.src = src
        self.dst = dst
        self._memo = {}

    def component(self, p):
        """The ep-pair at object p."""
        hit = self._memo.get(p)
        if hit is None:
            hit = self._memo[p] = functor_ep(
                self.expr, self.src, self.dst, identity_ep(p), self.ep_param
            )
        return hit


def reindex_ep(expr, backend, ep_param, element_cap=posets.DEFAULT_ELEMENT_CAP):
    """The reindexing family along `ep_param`, on two fresh instances."""
    if isinstance(expr, str):
        expr = parse(expr)
    src, dst = (FunctorInstance(expr, backend, z, z, element_cap)
                for z in (ep_param.dom, ep_param.cod))
    return Reindex(src, dst, ep_param)


# --------------------------------------------------------------------------
# relation lifting


def lifted_related(inst, rel, x, y, param_rel=None):
    """Structural lifting of relations x -> y, as boolean matrices.

    `rel` holds |x| x |y| relation matrices with any leading batch axes;
    the result holds the (..., |F(x)|, |F(y)|) matrices of related values.
    `param_rel`, a set of tag pairs, replaces equality at parameter
    positions (quotient-parameterised lifting).
    """
    fx, fy = inst.on_object(x), inst.on_object(y)  # both must exist under the cap
    rel = np.asarray(rel, dtype=np.bool_)
    if rel.shape[-2:] != (len(x), len(y)):
        raise DomainMismatch("relation matrix does not match the carriers")
    pv, pw = (None if param_rel is None else _pair_matrix(p, p, param_rel)
              for p in (inst.v, inst.w))
    return _lift(inst.expr, fx, fy, rel, pv, pw)


def _lift(node, fx, fy, rel, pv, pw):
    """Related-value matrices fx x fy, walking the recorded children of the
    node's objects fx and fy in step with the expression.  Arrows AND their
    codomain's lifting over matched domain slots, and upsets take the
    Egli-Milner lifting through boolean products with the membership masks.
    """
    batch = rel.shape[:-2]
    if isinstance(node, ConstP):
        return _const(np.eye(len(fx), dtype=np.bool_), batch)
    if isinstance(node, IdF):
        return rel
    if isinstance(node, ParamW):
        return _const(np.eye(len(fx), dtype=np.bool_) if pw is None else pw, batch)
    if isinstance(node, (Sum, Prod, LiftF)):
        return posets._relate_parts(fx, fy, [_lift(n, cx, cy, rel, pv, pw) for n, cx, cy
                                             in zip(_operands(node), fx.children, fy.children)])
    if isinstance(node, Fun):
        rx, ry = fx.rows, fy.rows
        ps = qs = np.arange(rx.shape[1])
        if isinstance(node.dom, ParamV) and pv is not None:
            ps, qs = np.nonzero(pv)
        cod = _lift(node.cod, fx.children[1], fy.children[1], rel, pv, pw)
        return cod[..., rx[:, None, ps], ry[None, :, qs]].all(axis=-1)
    if isinstance(node, Upset):
        mx, my = fx.rows, fy.rows
        inner = _lift(node.inner, fx.children[0], fy.children[0], rel, pv, pw)
        fwd = ~(mx @ ~(inner @ my.T))  # each x-side member has a partner on the y side
        bwd = ~(~(mx @ inner) @ my.T)  # and each y-side member one on the x side
        return fwd & bwd
    raise TypeError(f"not an expression node: {node!r}")


def _pair_matrix(x, y, pairs):
    """The boolean |x| x |y| matrix of a set of tag pairs between two
    carriers, each a poset or a sequence of distinct tags."""
    xi, yi = ({t: i for i, t in enumerate(z)} for z in (x, y))
    m = np.zeros((len(x), len(y)), dtype=np.bool_)
    for a, b in pairs:
        if a not in xi or b not in yi:
            raise InputError(f"pair ({a!r}, {b!r}) outside the carriers")
        m[xi[a], yi[b]] = True
    return m


def rel_lift(inst, pairs, x, y, param_rel=None):
    """Materialised structural lifting: the set of related pairs between
    the elements of F(x) and F(y)."""
    fx, fy = inst.on_object(x), inst.on_object(y)
    rows, cols = np.nonzero(lifted_related(inst, _pair_matrix(x, y, pairs), x, y, param_rel))
    return {(fx.elements[i], fy.elements[j]) for i, j in zip(rows.tolist(), cols.tolist())}


# --------------------------------------------------------------------------
# coalgebras


class CoalgebraSpec:
    """A finite coalgebra: a carrier and a structure map into the
    instance's value object over that carrier, given elementwise by tags.

    Validation checks that every structure value is an element of
    F(carrier) and that the assignment is monotone (and bottom-strict in
    a pointed backend, where coalgebras are strict maps).
    """

    def __init__(self, inst, carrier, structure):
        inst._check_state(carrier)
        if set(structure) != set(carrier.elements):
            raise BackendMismatch("structure must assign exactly the carrier elements")
        fc = inst.on_object(carrier)
        table = [fc.index(structure[e]) for e in carrier.elements]
        self.inst = inst
        self.carrier = carrier
        self._map = MonoMap(carrier, fc, table, inst.backend.pointed)

    def as_map(self):
        return self._map

    def __repr__(self):
        return f"CoalgebraSpec({len(self.carrier)} states over {pretty(self.inst.expr)!r})"
