"""Finite (pointed) posets and their category.

Objects are `FinPoset` values: a tuple of canonical element tags, the full
reflexive-transitive order matrix, and an optional *declared* bottom.  The
bottom flag records pointedness (membership in the strict backend); a poset
may well have a least element without being declared pointed, which is how
the plain backend sees pointed objects after `mediator.include`.

Element tags are strings for user-supplied posets and nested tuples for
constructed ones (pairs, injections, tables, upsets, lifts), so that equal
constructions produce identical posets, not merely isomorphic ones.

Each constructor lays its elements out by index, so maps between
constructed posets can be computed on indices alone:

- `product(p, q)`: the pair of p's i-th and q's j-th element is at
  `i * len(q) + j`.
- `separated_sum(p, q)`: p's elements at `0..len(p)-1`, then q's.
- `coalesced_sum(p, q)`: the shared bottom at 0, then p's non-bottom
  elements in p's order, then q's.
- `lift(p)`: the new bottom at 0, p's i-th element at `i + 1`.
- `fun_space` / `strict_fun_space`: element k is the table `rows[k]`, an
  int32 row of codomain indices, one per domain element.
- `upsets` / `strict_upsets`: element k is the upset `rows[k]`, a boolean
  membership mask over all of the ground poset's elements (the bottom
  column is false for strict upsets).

`rows` is None for every other poset.  `locate` maps index rows back to
element indices.

Every monotone map is continuous at this scale (all chains stabilize), so
no continuity side conditions appear anywhere.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import (
    BottomNotLeast,
    CycleDetected,
    DomainMismatch,
    DuplicateElement,
    ElementCapExceeded,
    EpLawViolation,
    InputError,
    NotPointed,
    SizeCapExceeded,
)

DEFAULT_ELEMENT_CAP = 512
DEFAULT_ISO_CAP = 512

CBOT = ("cbot",)
LBOT = ("lbot",)


class FinPoset:
    """A finite partial order with an optional declared bottom."""

    __slots__ = ("elements", "leq", "bottom_idx", "rows", "_index", "_row_index",
                 "_key", "_hash")

    def __init__(self, elements, leq, bottom_idx=None, rows=None):
        self.elements = tuple(elements)
        leq = np.ascontiguousarray(leq, dtype=np.bool_)
        leq.flags.writeable = False
        self.leq = leq
        self.bottom_idx = bottom_idx
        if rows is not None:
            rows = np.ascontiguousarray(rows)
            rows.flags.writeable = False
        self.rows = rows
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise DuplicateElement("duplicate element tags")
        self._row_index = None
        self._key = None
        self._hash = None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def index(self, tag):
        try:
            return self._index[tag]
        except KeyError:
            raise DomainMismatch(f"element {tag!r} not in poset") from None

    def locate(self, rows):
        """Element indices of a table/upset poset's index rows, as int32."""
        if self._row_index is None:
            self._row_index = {k: i for i, k in enumerate(_row_keys(self.rows))}
        rows = np.asarray(rows, dtype=self.rows.dtype)
        try:
            return np.array([self._row_index[k] for k in _row_keys(rows)], dtype=np.int32)
        except KeyError:
            raise DomainMismatch("index row not in poset") from None

    def __contains__(self, tag):
        return tag in self._index

    def leq_tags(self, a, b):
        return bool(self.leq[self.index(a), self.index(b)])

    @property
    def is_pointed(self):
        return self.bottom_idx is not None

    @property
    def bottom(self):
        if self.bottom_idx is None:
            return None
        return self.elements[self.bottom_idx]

    def require_pointed(self, what="operation"):
        if not self.is_pointed:
            raise NotPointed(f"{what} requires a pointed poset")
        return self

    def key(self):
        if self._key is None:
            self._key = (self.elements, self.leq.tobytes(), self.bottom_idx)
        return self._key

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FinPoset):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self):
        point = f", bottom={pretty_tag(self.bottom)}" if self.is_pointed else ""
        return f"FinPoset({len(self)} elements{point})"


def _row_keys(rows):
    """One bytes key per row of a 2-d array."""
    width = rows.shape[1] * rows.itemsize
    data = np.ascontiguousarray(rows).tobytes()
    return [data[i * width : (i + 1) * width] for i in range(len(rows))]


def _check_cap(size, cap, what):
    if cap is not None and size > cap:
        raise ElementCapExceeded(f"{what} would have {size} > {cap} elements")


# --------------------------------------------------------------------------
# construction from raw data


def validate_poset(elements, pairs, bottom=None):
    """Close a generating relation and validate it as a partial order."""
    elements = list(elements)
    if len(set(elements)) != len(elements):
        raise DuplicateElement("duplicate element identifiers")
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    rel = np.zeros((n, n), dtype=np.bool_)
    for a, b in pairs:
        if a not in index or b not in index:
            raise InputError(f"order pair ({a!r}, {b!r}) mentions unknown elements")
        rel[index[a], index[b]] = True
    leq = kernels.transitive_closure(rel)
    sym = leq & leq.T
    np.fill_diagonal(sym, False)
    if sym.any():
        i, j = np.argwhere(sym)[0]
        raise CycleDetected(
            f"antisymmetry fails: {elements[i]!r} and {elements[j]!r} are equivalent"
        )
    bottom_idx = None
    if bottom is not None:
        if bottom not in index:
            raise InputError(f"bottom {bottom!r} is not an element")
        bottom_idx = index[bottom]
        if not leq[bottom_idx, :].all():
            raise BottomNotLeast(f"{bottom!r} is not below every element")
    return FinPoset(elements, leq, bottom_idx)


def unit():
    """The one-point pointed poset."""
    return FinPoset(("*",), np.ones((1, 1), dtype=np.bool_), 0)


def empty_poset():
    return FinPoset((), np.zeros((0, 0), dtype=np.bool_), None)


def boolean_lattice():
    """The two-point lattice bot <= top, pointed."""
    leq = np.array([[True, True], [False, True]])
    return FinPoset(("bot", "top"), leq, 0)


def discrete(names):
    """Anti-chain poset on the given names, not pointed."""
    names = list(names)
    if len(set(names)) != len(names):
        raise DuplicateElement("duplicate element identifiers")
    return FinPoset(names, np.eye(len(names), dtype=np.bool_), None)


def chain(n, prefix="c"):
    """A linear order with n elements, pointed when nonempty."""
    leq = np.triu(np.ones((n, n), dtype=np.bool_))
    return FinPoset(tuple(f"{prefix}{i}" for i in range(n)), leq, 0 if n else None)


# --------------------------------------------------------------------------
# object-level constructions


def product(p, q, cap=None):
    """Componentwise order on pairs; pointed when both factors are."""
    _check_cap(len(p) * len(q), cap, "product")
    elements = [("pair", x, y) for x in p.elements for y in q.elements]
    leq = np.kron(p.leq, q.leq)
    bottom_idx = None
    if p.is_pointed and q.is_pointed:
        bottom_idx = p.bottom_idx * len(q) + q.bottom_idx
    return FinPoset(elements, leq, bottom_idx)


def separated_sum(p, q, cap=None):
    """Disjoint union with no cross-order and no identification."""
    _check_cap(len(p) + len(q), cap, "separated sum")
    elements = [("inl", x) for x in p.elements] + [("inr", y) for y in q.elements]
    n, m = len(p), len(q)
    leq = np.zeros((n + m, n + m), dtype=np.bool_)
    leq[:n, :n] = p.leq
    leq[n:, n:] = q.leq
    return FinPoset(elements, leq, None)


def coalesced_sum(p, q, cap=None):
    """Disjoint union with the two bottoms identified; requires pointed."""
    p.require_pointed("coalesced_sum")
    q.require_pointed("coalesced_sum")
    _check_cap(len(p) + len(q) - 1, cap, "coalesced sum")
    kp = [i for i in range(len(p)) if i != p.bottom_idx]
    kq = [j for j in range(len(q)) if j != q.bottom_idx]
    elements = ([CBOT] + [("inl", p.elements[i]) for i in kp]
                + [("inr", q.elements[j]) for j in kq])
    n, off = len(elements), 1 + len(kp)
    leq = np.zeros((n, n), dtype=np.bool_)
    leq[0, :] = True
    leq[1:off, 1:off] = p.leq[np.ix_(kp, kp)]
    leq[off:, off:] = q.leq[np.ix_(kq, kq)]
    return FinPoset(elements, leq, 0)


def lift(p, cap=None):
    """Add one fresh bottom below everything; always pointed."""
    _check_cap(len(p) + 1, cap, "lift")
    elements = [LBOT] + [("lup", x) for x in p.elements]
    n = len(p) + 1
    leq = np.zeros((n, n), dtype=np.bool_)
    leq[0, :] = True
    leq[1:, 1:] = p.leq
    np.fill_diagonal(leq, True)
    return FinPoset(elements, leq, 0)


def _tables_to_poset(tables, cod):
    """Build the pointwise-ordered poset of assignment tables."""
    elements = [("table", tuple(cod.elements[v] for v in row)) for row in tables]
    k = len(elements)
    leq = np.zeros((k, k), dtype=np.bool_)
    if k:
        t = np.asarray(tables, dtype=np.int64)
        for i in range(k):
            if t.shape[1]:
                leq[i, :] = cod.leq[t[i][None, :], t].all(axis=1)
            else:
                leq[i, :] = True
    bottom_idx = None
    if cod.is_pointed:  # the constant bottom table is always enumerated
        bottom_idx = int(np.argmax((tables == cod.bottom_idx).all(axis=1)))
    return FinPoset(elements, leq, bottom_idx, tables)


def fun_space(p, q, cap=DEFAULT_ELEMENT_CAP):
    """All monotone tables p -> q under the pointwise order."""
    limit = (cap + 1) if cap is not None else (max(1, len(q)) ** max(1, len(p)) + 1)
    tables = kernels.enum_monotone_tables(p.leq, q.leq, limit)
    _check_cap(len(tables), cap, "function space")
    return _tables_to_poset(tables, q)


def strict_fun_space(p, q, cap=DEFAULT_ELEMENT_CAP):
    """Monotone bottom-strict tables p -> q, pointwise order."""
    p.require_pointed("strict_fun_space")
    q.require_pointed("strict_fun_space")
    forced = np.full(len(p), -1, dtype=np.int32)
    forced[p.bottom_idx] = q.bottom_idx
    limit = (cap + 1) if cap is not None else (max(1, len(q)) ** max(1, len(p)) + 1)
    tables = kernels.enum_monotone_tables(p.leq, q.leq, limit, forced)
    _check_cap(len(tables), cap, "strict function space")
    return _tables_to_poset(tables, q)


def _masks_to_poset(masks, ground):
    """Build the inclusion-ordered poset of full-ground membership masks."""
    elements = [
        ("upset", tuple(e for e, m in zip(ground.elements, row) if m))
        for row in masks
    ]
    k = len(elements)
    leq = np.zeros((k, k), dtype=np.bool_)
    if k:
        for i in range(k):
            if masks.shape[1]:
                leq[i, :] = ~(masks[i][None, :] & ~masks).any(axis=1)
            else:
                leq[i, :] = True
    bottom_idx = int(np.argmax(~masks.any(axis=1)))  # the empty upset
    return FinPoset(elements, leq, bottom_idx, masks)


def upsets(p, cap=DEFAULT_ELEMENT_CAP):
    """Up-closed subsets of p ordered by inclusion; empty set is bottom."""
    limit = (cap + 1) if cap is not None else (1 << len(p)) + 1
    masks = kernels.enum_upsets(p.leq, limit)
    _check_cap(len(masks), cap, "upset poset")
    return _masks_to_poset(masks, p)


def strict_upsets(p, cap=DEFAULT_ELEMENT_CAP):
    """Up-closed subsets excluding the bottom, ordered by inclusion."""
    p.require_pointed("strict_upsets")
    keep = [i for i in range(len(p)) if i != p.bottom_idx]
    sub = p.leq[np.ix_(keep, keep)]
    limit = (cap + 1) if cap is not None else (1 << len(keep)) + 1
    masks = kernels.enum_upsets(sub, limit)
    _check_cap(len(masks), cap, "strict upset poset")
    full = np.zeros((len(masks), len(p)), dtype=np.bool_)
    full[:, keep] = masks
    return _masks_to_poset(full, p)


def all_posets_upto(n, prefix="e"):
    """All finite posets with at most n elements, one per iso class.

    Enumerates reflexive upper-triangular transitive matrices (every poset
    admits a linear extension, so this hits every iso class) and dedupes
    with the iso search.  Feasible up to n = 5 or so.
    """
    out = [empty_poset()]
    for k in range(1, n + 1):
        slots = [(i, j) for i in range(k) for j in range(i + 1, k)]
        reps = []
        for mask in range(1 << len(slots)):
            leq = np.eye(k, dtype=np.bool_)
            for b, (i, j) in enumerate(slots):
                if (mask >> b) & 1:
                    leq[i, j] = True
            closed = kernels.transitive_closure(leq)
            if not np.array_equal(closed, leq):
                continue
            if any(kernels.find_isomorphism(leq, r) is not None for r in reps):
                continue
            reps.append(leq)
        for leq in reps:
            out.append(
                FinPoset(tuple(f"{prefix}{i}" for i in range(k)), leq, None)
            )
    return out


def with_declared_bottom(p):
    """The same order with its least element declared, if one exists."""
    for i in range(len(p)):
        if p.leq[i, :].all():
            return FinPoset(p.elements, p.leq, i)
    return None


# --------------------------------------------------------------------------
# maps, ep-pairs, isos


class MonoMap:
    """A monotone (optionally bottom-strict) map between finite posets."""

    __slots__ = ("dom", "cod", "table", "strict")

    def __init__(self, dom, cod, table, strict=False):
        self.dom = dom
        self.cod = cod
        table = np.ascontiguousarray(table, dtype=np.int32)
        table.flags.writeable = False
        self.table = table
        if table.shape != (len(dom),):
            raise DomainMismatch("table length does not match domain size")
        if len(dom) and (table.min() < 0 or table.max() >= len(cod)):
            raise DomainMismatch("table value outside codomain")
        if not kernels.monotone_ok(dom.leq, cod.leq, table):
            raise DomainMismatch("assignment is not monotone")
        if strict:
            dom.require_pointed("strict map")
            cod.require_pointed("strict map")
            if table[dom.bottom_idx] != cod.bottom_idx:
                raise NotPointed("map does not preserve bottom")
        self.strict = bool(strict)

    @classmethod
    def from_tags(cls, dom, cod, assign, strict=False):
        """Build from a dict or callable sending dom tags to cod tags."""
        get = assign.__getitem__ if isinstance(assign, dict) else assign
        table = np.array([cod.index(get(e)) for e in dom.elements], dtype=np.int32)
        return cls(dom, cod, table, strict)

    @classmethod
    def auto_strict(cls, dom, cod, table):
        """Set the strict flag whenever it is meaningful and holds."""
        strict = (
            dom.is_pointed
            and cod.is_pointed
            and len(dom) > 0
            and int(table[dom.bottom_idx]) == cod.bottom_idx
        )
        return cls(dom, cod, table, strict)

    def __call__(self, tag):
        return self.cod.elements[self.table[self.dom.index(tag)]]

    def __eq__(self, other):
        if not isinstance(other, MonoMap):
            return NotImplemented
        return (
            self.dom == other.dom
            and self.cod == other.cod
            and np.array_equal(self.table, other.table)
        )

    def __hash__(self):
        return hash((self.dom, self.cod, self.table.tobytes()))

    def __repr__(self):
        return f"MonoMap({len(self.dom)} -> {len(self.cod)}{', strict' if self.strict else ''})"

    def is_identity(self):
        return self.dom == self.cod and np.array_equal(
            self.table, np.arange(len(self.dom), dtype=np.int32)
        )

    def is_injective(self):
        return len(set(self.table.tolist())) == len(self.dom)

    def is_surjective(self):
        return len(set(self.table.tolist())) == len(self.cod)


def identity(p):
    """Identity map; strict whenever the poset is pointed."""
    return MonoMap(p, p, np.arange(len(p), dtype=np.int32), strict=p.is_pointed)


def compose(f, g):
    """Diagram-order composite: first f, then g."""
    if f.cod != g.dom:
        raise DomainMismatch("compose: codomain of first map must match domain of second")
    table = g.table[f.table] if len(f.dom) else np.zeros(0, dtype=np.int32)
    return MonoMap(f.dom, g.cod, table, strict=f.strict and g.strict)


class EpPair:
    """An embedding-projection pair e: X -> Y, p: Y -> X.

    Laws (p . e = id and e . p <= id) are re-verified pointwise at
    construction, so any ep-pair held by the engine is a checked one.
    """

    __slots__ = ("e", "p")

    def __init__(self, e, p):
        if e.dom != p.cod or e.cod != p.dom:
            raise DomainMismatch("ep pair endpoints do not match")
        if not np.array_equal(
            p.table[e.table] if len(e.dom) else np.zeros(0, dtype=np.int32),
            np.arange(len(e.dom), dtype=np.int32),
        ):
            raise EpLawViolation("p . e is not the identity")
        y = np.arange(len(e.cod), dtype=np.int32)
        ep = e.table[p.table] if len(e.cod) else y
        if len(e.cod) and not e.cod.leq[ep, y].all():
            raise EpLawViolation("e . p is not below the identity")
        self.e = e
        self.p = p

    @property
    def dom(self):
        return self.e.dom

    @property
    def cod(self):
        return self.e.cod

    def as_iso(self):
        """The pair as an Iso when the embedding is onto, else None."""
        if len(self.dom) != len(self.cod):
            return None
        if len(self.dom) and not np.array_equal(
            self.e.table[self.p.table], np.arange(len(self.cod), dtype=np.int32)
        ):
            return None
        return Iso(self.e, self.p)

    def then(self, other):
        """Composite ep-pair: embeddings forward, projections backward."""
        return EpPair(compose(self.e, other.e), compose(other.p, self.p))

    def __repr__(self):
        return f"EpPair({len(self.dom)} -> {len(self.cod)})"


def identity_ep(p):
    i = identity(p)
    return EpPair(i, i)


def bottom_ep(one, q):
    """The forced ep-pair from the one-point poset: bottom map and bang."""
    q.require_pointed("bottom_ep")
    if len(one) != 1:
        raise DomainMismatch("bottom_ep expects a singleton domain")
    e = MonoMap(one, q, np.array([q.bottom_idx], dtype=np.int32), strict=one.is_pointed)
    p = MonoMap(q, one, np.zeros(len(q), dtype=np.int32), strict=one.is_pointed)
    return EpPair(e, p)


def ep_check(e, p):
    """Do e and p satisfy both ep laws?"""
    try:
        EpPair(e, p)
        return True
    except (EpLawViolation, DomainMismatch):
        return False


class Iso:
    """An order-isomorphism, stored as mutually inverse monotone maps."""

    __slots__ = ("forward", "backward")

    def __init__(self, forward, backward):
        if forward.dom != backward.cod or forward.cod != backward.dom:
            raise DomainMismatch("iso endpoints do not match")
        n = len(forward.dom)
        if not np.array_equal(
            backward.table[forward.table] if n else np.zeros(0, dtype=np.int32),
            np.arange(n, dtype=np.int32),
        ):
            raise EpLawViolation("backward . forward is not the identity")
        m = len(forward.cod)
        if not np.array_equal(
            forward.table[backward.table] if m else np.zeros(0, dtype=np.int32),
            np.arange(m, dtype=np.int32),
        ):
            raise EpLawViolation("forward . backward is not the identity")
        self.forward = forward
        self.backward = backward

    @property
    def dom(self):
        return self.forward.dom

    @property
    def cod(self):
        return self.forward.cod

    def as_ep(self):
        return EpPair(self.forward, self.backward)

    def reversed(self):
        return Iso(self.backward, self.forward)

    def __repr__(self):
        return f"Iso({len(self.dom)} ~ {len(self.cod)})"


def iso_check(p, q, cap=DEFAULT_ISO_CAP):
    """Witness order-isomorphism between p and q, or None.

    Sound (the witness is verified) and complete for posets up to `cap`
    elements; larger inputs raise SizeCapExceeded.
    """
    if cap is not None and max(len(p), len(q)) > cap:
        raise SizeCapExceeded(f"iso_check cap {cap} exceeded")
    if len(p) != len(q):
        return None
    if p.elements == q.elements and np.array_equal(p.leq, q.leq):
        return _iso_from_perm(p, q, np.arange(len(p), dtype=np.int32))
    perm = kernels.find_isomorphism(p.leq, q.leq)
    if perm is None:
        return None
    return _iso_from_perm(p, q, perm)


def _iso_from_perm(p, q, perm):
    fwd = MonoMap.auto_strict(p, q, perm)
    inv = np.empty(len(p), dtype=np.int32)
    inv[perm] = np.arange(len(p), dtype=np.int32)
    bwd = MonoMap.auto_strict(q, p, inv)
    return Iso(fwd, bwd)


# --------------------------------------------------------------------------
# Hasse diagrams and interchange formats


def hasse(p):
    """Cover-relation edge list (the transitive reduction of leq)."""
    lt = p.leq & ~np.eye(len(p), dtype=np.bool_)
    covers = lt & ~(lt @ lt)
    return [
        (p.elements[i], p.elements[j])
        for i in range(len(p))
        for j in range(len(p))
        if covers[i, j]
    ]


def tag_to_json(tag):
    if isinstance(tag, str):
        return tag
    return [tag_to_json(part) for part in tag]


def tag_from_json(obj):
    if isinstance(obj, str):
        return obj
    if isinstance(obj, list):
        return tuple(tag_from_json(part) for part in obj)
    raise InputError(f"bad element tag in JSON: {obj!r}")


def tag_sort_key(tag):
    """A total order on element tags (strings before tuples, recursive)."""
    if isinstance(tag, str):
        return (0, tag)
    return (1, tuple(tag_sort_key(t) for t in tag))


def pretty_tag(tag):
    """Compact human-readable form of an element tag (display only)."""
    if isinstance(tag, str):
        return tag
    head = tag[0] if tag else ""
    if tag == CBOT or tag == LBOT:
        return "_|_"
    if head == "lup":
        return "^" + pretty_tag(tag[1])
    if head == "pair":
        return "(" + ",".join(pretty_tag(t) for t in tag[1:]) + ")"
    if head == "inl":
        return "l." + pretty_tag(tag[1])
    if head == "inr":
        return "r." + pretty_tag(tag[1])
    if head == "table":
        return "<" + ",".join(pretty_tag(t) for t in tag[1]) + ">"
    if head == "upset":
        return "{" + ",".join(pretty_tag(t) for t in tag[1]) + "}"
    if head == "cls":
        return "[" + ",".join(pretty_tag(t) for t in tag[1]) + "]"
    return repr(tag)


def poset_to_json(p):
    """JSON form: elements, a generating leq (the covers), optional bottom."""
    return {
        "elements": [tag_to_json(e) for e in p.elements],
        "leq": [[tag_to_json(a), tag_to_json(b)] for a, b in hasse(p)],
        "bottom": tag_to_json(p.bottom) if p.is_pointed else None,
    }


def poset_from_json(obj):
    if not isinstance(obj, dict) or "elements" not in obj:
        raise InputError("poset JSON must be an object with an 'elements' list")
    elements = [tag_from_json(e) for e in obj["elements"]]
    pairs = [
        (tag_from_json(a), tag_from_json(b)) for a, b in obj.get("leq", [])
    ]
    bottom = obj.get("bottom")
    bottom = tag_from_json(bottom) if bottom is not None else None
    return validate_poset(elements, pairs, bottom)


def poset_to_dot(p, name="poset"):
    """DOT rendering of the Hasse diagram, bottom drawn lowest."""
    lines = [f'digraph "{name}" {{', "  rankdir=BT;", "  node [shape=box];"]
    for i, e in enumerate(p.elements):
        style = ' style=bold' if i == p.bottom_idx else ""
        lines.append(f'  n{i} [label="{_dot_escape(pretty_tag(e))}"{style}];')
    lt = p.leq & ~np.eye(len(p), dtype=np.bool_)
    covers = lt & ~(lt @ lt)
    for i in range(len(p)):
        for j in range(len(p)):
            if covers[i, j]:
                lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(s):
    return s.replace("\\", "\\\\").replace('"', '\\"')
