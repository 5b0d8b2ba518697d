"""Finite (pointed) posets and their category.

Objects are `FinPoset` values: a tuple of canonical element tags, the full
reflexive-transitive order matrix, and an optional *declared* bottom.  The
bottom flag records pointedness (membership in the strict backend); a poset
may well have a least element without being declared pointed, which is how
the plain backend sees pointed objects after `mediator.include`.

Element tags are strings for user-supplied posets and nested tuples for
constructed ones (pairs, injections, tables, upsets, lifts), so that equal
constructions produce identical posets, not merely isomorphic ones.

Each poset holds one `_Record` of how it was built.  A leaf's holds its
tags; a constructor's holds its kind, its operand posets and its index
arrays, and only this module reads them (`_map_parts` and `_relate_parts`
assemble the functor actions of products, sums and lifts).  Tags are a view
of the record (`_tags`), built from the children's tags on the first read
of `elements` and kept on the record, which `include` and
`with_declared_bottom` share.  Nothing on the order side reads a tag, and
the tag index behind `index` and `in` is built on the first lookup, where a
repeated tag raises `DuplicateElement`.  Identity is the declared bottom,
the order and the tags; the hash comes from the order and the bottom, and
equality compares records before tags, so that equal constructions never
build their tag trees.  The layouts:

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

Sums and lifts record these as one injection per child (a coalesced
summand's bottom goes to 0); `rows` is None for other posets, and `locate`
maps index rows back to element indices.  Tables are ordered by
`kernels.table_order` (per-position bitsets of the rows above each
codomain value), upsets by `kernels.inclusion_order` on their masks.
`element_forms` writes each element of a constructed poset by index into
its operands (a report pool entry), and `poset_from_forms` rebuilds and
checks a poset from them with the same layouts and kernels.

These four constructors check their cap before they enumerate whenever
the naive bound (2^n upsets, |q|^|p| tables) exceeds it, with one
certificate: `kernels.count_chain_maps` counts the monotone maps from the
domain (less its bottom, for the strict constructors) into a chain as long
as the codomain's longest one, and raises `ElementCapExceeded` when there
are more than `cap`.  An upset is a map into the 2-chain, so upsets are
counted exactly; tables into a longest chain are some of all the tables.
A certificate only raises early: a poset that fits is enumerated as
before, and one that the count misses still raises after `cap + 1` rows.

Every monotone map is continuous at this scale (all chains stabilize), so
no continuity side conditions appear anywhere.
"""

from __future__ import annotations

from itertools import compress, permutations

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
_SHAPE_CHUNK_BYTES = 1 << 23  # relabeled order matrices per chunk of `all_posets_upto`

CBOT = ("cbot",)
LBOT = ("lbot",)


class _Record:
    """How a poset was built, and its tags once read: a leaf (kind None) and
    its tags, or a "product", "sum", "coalesced", "lift", "tables" or
    "upsets" over its operand posets, with its index rows or injections."""

    __slots__ = ("kind", "children", "rows", "inj", "tags")

    def __init__(self, kind, children=(), rows=None, inj=None, tags=None):
        if rows is not None:
            rows = np.ascontiguousarray(rows)
            rows.flags.writeable = False
        self.kind, self.children, self.rows, self.inj, self.tags = kind, children, rows, inj, tags


class FinPoset:
    """A finite partial order with an optional declared bottom; `elements`
    is a sequence of tags, or a constructor's `_Record` (module docstring)."""

    __slots__ = ("_record", "rows", "children", "leq", "bottom_idx", "_index", "_row_index",
                 "_hash")

    def __init__(self, elements, leq, bottom_idx=None, rows=None):
        if not isinstance(elements, _Record):
            elements = _Record(None, rows=rows, tags=tuple(elements))
        # the record's index rows and operand posets, read on every action
        self._record, self.rows, self.children = elements, elements.rows, elements.children
        leq = np.ascontiguousarray(leq, dtype=np.bool_)
        leq.flags.writeable = False
        self.leq = leq
        self.bottom_idx = bottom_idx
        self._index = self._row_index = self._hash = None

    @property
    def elements(self):
        return _tags(self)

    def with_bottom(self, bottom_idx):
        """The same record and order, declaring `bottom_idx` (or None)."""
        return FinPoset(self._record, self.leq, bottom_idx)

    def __len__(self):
        return self.leq.shape[0]

    def __iter__(self):
        return iter(self.elements)

    def _lookup(self):
        if self._index is None:
            elements = self.elements
            index = {e: i for i, e in enumerate(elements)}
            if len(index) != len(elements):
                raise DuplicateElement("duplicate element tags")
            self._index = index
        return self._index

    def index(self, tag):
        try:
            return self._lookup()[tag]
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
        return tag in self._lookup()

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

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FinPoset):
            return NotImplemented
        return _same_construction(self, other) or (
            self.bottom_idx == other.bottom_idx and np.array_equal(self.leq, other.leq)
            and self.elements == other.elements)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.leq.tobytes(), self.bottom_idx))
        return self._hash

    def __repr__(self):
        point = f", bottom={pretty_tag(_tag_at(self, self.bottom_idx))}" if self.is_pointed else ""
        return f"FinPoset({len(self)} elements{point})"


def _tags(p):
    """p's element tags: the view of its record, built from the children's
    tags on the first read and kept on the record."""
    rec = p._record
    if rec.tags is None:
        kind, kids = rec.kind, rec.children
        if kind == "product":
            qs = _tags(kids[1])
            tags = [("pair", x, y) for x in _tags(kids[0]) for y in qs]
        elif kind == "tables":
            cod = _tags(kids[1])
            tags = [("table", tuple([cod[v] for v in row])) for row in rec.rows.tolist()]
        elif kind == "upsets":
            ground = _tags(kids[0])
            tags = [("upset", tuple(compress(ground, row))) for row in rec.rows.tolist()]
        elif kind == "lift":
            tags = [LBOT] + [("lup", x) for x in _tags(kids[0])]
        else:  # a sum: each summand's tags at its injection
            tags = [CBOT] * len(p)
            for head, kid, inj in zip(("inl", "inr"), kids, rec.inj):
                for i, x in zip(inj.tolist(), _tags(kid)):
                    tags[i] = (head, x)
            if kind == "coalesced":
                tags[0] = CBOT  # where both summands' bottoms went
        rec.tags = tuple(tags)
    return rec.tags


def _tag_at(p, i):
    """p's i-th tag, `_tags(p)[i]`, built alone from the record: the other
    elements' tags stay unbuilt."""
    rec = p._record
    if rec.tags is not None:
        return rec.tags[i]
    kind, kids = rec.kind, rec.children
    if kind == "product":
        x, y = divmod(i, len(kids[1]))
        return ("pair", _tag_at(kids[0], x), _tag_at(kids[1], y))
    if kind == "tables":
        return ("table", tuple(_tag_at(kids[1], v) for v in rec.rows[i].tolist()))
    if kind == "upsets":
        return ("upset", tuple(_tag_at(kids[0], j) for j in np.flatnonzero(rec.rows[i]).tolist()))
    if kind == "lift":
        return ("lup", _tag_at(kids[0], i - 1)) if i else LBOT
    if kind == "coalesced" and i == 0:
        return CBOT  # where both summands' bottoms went
    # a sum: the summand whose injection holds i, the right one first, as
    # `_tags` writes it last
    for head, kid, inj in reversed(list(zip(("inl", "inr"), kids, rec.inj))):
        hit = np.flatnonzero(inj == i)
        if hit.size:
            return (head, _tag_at(kid, int(hit[-1])))
    return CBOT


def _same_construction(p, q):
    """Are p and q one construction (so equal): one bottom, and one record,
    two leaves of one order with equal tags, or one kind with equal rows
    over children that are one construction each?  Then q takes p's record
    and tags, and the next comparison of the two is immediate."""
    r, s = p._record, q._record
    if p.bottom_idx != q.bottom_idx or r.kind != s.kind:
        return False
    if r is s or r.kind is None:
        return r is s or (np.array_equal(p.leq, q.leq) and r.tags == s.tags)
    if not ((r.rows is s.rows or np.array_equal(r.rows, s.rows))
            and all(map(_same_construction, r.children, s.children))):
        return False
    r.tags, q._record = r.tags or s.tags, r
    return True


def _over(p, children):
    """p recorded over `children`, which have the orders and bottoms of its
    own operands: p when they are the same constructions, else a poset with
    p's order and index arrays whose tags come from `children`."""
    rec = p._record
    if all(map(_same_construction, rec.children, children)):
        return p
    return FinPoset(_Record(rec.kind, tuple(children), rec.rows, rec.inj), p.leq, p.bottom_idx)


def _injection(p):
    """The index in lift(P) = p of each of P's elements."""
    return p._record.inj[0]


def _map_parts(fa, fb, act, batch):
    """Index tables fa -> fb (leading axes `batch`) of a product, sum or lift
    whose k-th children map by `act(k, child of fa, child of fb)`.  A
    one-point coalesced summand meets the sum only in its bottom and is not
    mapped: under a non-strict plain map its image need not exist."""
    kind, ka, kb = fa._record.kind, fa.children, fb.children
    if kind == "product":
        lt, rt = act(0, ka[0], kb[0]), act(1, ka[1], kb[1])
        return (lt[..., :, None] * len(kb[1]) + rt[..., None, :]).reshape(batch + (len(fa),))
    out = np.empty(batch + (len(fa),), dtype=np.int32)
    for k, (ca, cb, ia, ib) in enumerate(zip(ka, kb, fa._record.inj, fb._record.inj)):
        if kind != "coalesced" and len(ca):  # one block, moved by its offset: half the cost
            out[..., ia[0]:ia[-1] + 1] = act(k, ca, cb) + ib[0]
        elif kind == "coalesced" and len(ca) > 1:
            out[..., ia] = ib[act(k, ca, cb)]
    if kind != "sum":
        out[..., 0] = 0  # the new or shared bottom
    return out


def _relate_parts(fx, fy, rels):
    """Related-value matrices fx x fy of a product, sum or lift whose k-th
    children are related by `rels[k]` (any leading batch axes): Kronecker
    products for pairs; sums and lifts relate within each child, and their
    new or shared bottoms only to each other."""
    kind, batch = fx._record.kind, rels[0].shape[:-2]
    if kind == "product":
        lt, rt = rels
        return (lt[..., :, None, :, None] & rt[..., None, :, None, :]).reshape(
            batch + (len(fx), len(fy)))
    out = np.zeros(batch + (len(fx), len(fy)), dtype=np.bool_)
    for t, ix, iy in zip(rels, fx._record.inj, fy._record.inj):
        if kind == "coalesced":
            out[..., ix[:, None], iy] = t
        elif t.size:  # one block of a sum or lift: slices cost a tenth of the above
            out[..., ix[0]:ix[-1] + 1, iy[0]:iy[-1] + 1] = t
    if kind != "sum":
        out[..., 0, :] = out[..., :, 0] = False
        out[..., 0, 0] = True
    return out


def _row_keys(rows):
    """One bytes key per row of a 2-d array."""
    width = rows.shape[1] * rows.itemsize
    data = np.ascontiguousarray(rows).tobytes()
    return [data[i * width : (i + 1) * width] for i in range(len(rows))]


def _drop_index(leq, i, out=None):
    """The square matrix `leq` without row and column i, copied as the four
    blocks around them into `out` (a new array when None).  A fancy index
    such as `leq[np.ix_(keep, keep)]` gathers element by element and costs
    about thirty times as much from a few hundred elements up."""
    n = leq.shape[0]
    if out is None:
        out = np.empty((n - 1, n - 1), dtype=leq.dtype)
    if i == 0:  # one block, where the constructors put most bottoms
        out[...] = leq[1:, 1:]
        return out
    out[:i, :i] = leq[:i, :i]
    out[:i, i:] = leq[:i, i + 1:]
    out[i:, :i] = leq[i + 1:, :i]
    out[i:, i:] = leq[i + 1:, i + 1:]
    return out


def _check_cap(size, cap, what):
    if cap is not None and size > cap:
        raise ElementCapExceeded(f"{what} would have {size} > {cap} elements")


# --------------------------------------------------------------------------
# construction from raw data


def validate_poset(elements, pairs, bottom=None):
    """Close a generating relation and validate it as a partial order."""
    elements = list(elements)
    index = {e: i for i, e in enumerate(elements)}
    ij = []
    for a, b in pairs:
        if a not in index or b not in index:
            raise InputError(f"order pair ({a!r}, {b!r}) mentions unknown elements")
        ij.append((index[a], index[b]))
    if bottom is not None and bottom not in index:
        raise InputError(f"bottom {bottom!r} is not an element")
    return _poset_from_index_pairs(elements, ij, None if bottom is None else index[bottom])


def _indices(values, n, what):
    """The list `values` as an int64 array, each a Python int (not a bool)
    in 0..n-1, else InputError."""
    if not all(type(v) is int for v in values) or (
        values and (min(values) < 0 or max(values) >= n)
    ):
        raise InputError(f"{what} must be element indices below {n}")
    return np.array(values, dtype=np.int64)


def _poset_from_index_pairs(elements, pairs, bottom_idx=None):
    """Close generating index pairs (i, j), meaning elements[i] <= elements[j],
    and validate the result as a partial order with `bottom_idx` least: the
    one builder behind `validate_poset` and the report loader."""
    elements = tuple(elements)
    n = len(elements)
    if len(set(elements)) != n:
        raise DuplicateElement("duplicate element identifiers")
    if not _is_pair_list(pairs):
        raise InputError("order pairs must be pairs of element indices")
    ij = _indices([k for pair in pairs for k in pair], n, "order pairs").reshape(-1, 2)
    rel = np.zeros((n, n), dtype=np.bool_)
    rel[ij[:, 0], ij[:, 1]] = True
    leq = kernels.transitive_closure(rel)
    sym = leq & leq.T
    np.fill_diagonal(sym, False)
    if sym.any():
        i, j = np.argwhere(sym)[0]
        raise CycleDetected(
            f"antisymmetry fails: {elements[i]!r} and {elements[j]!r} are equivalent"
        )
    if bottom_idx is not None:
        _indices([bottom_idx], n, "bottom")
        if not leq[bottom_idx, :].all():
            raise BottomNotLeast(f"{elements[bottom_idx]!r} is not below every element")
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
    # the Kronecker product, as one broadcast AND (np.kron costs 12 us more
    # on small orders)
    n = len(p) * len(q)
    leq = (p.leq[:, None, :, None] & q.leq[None, :, None, :]).reshape(n, n)
    bottom_idx = None
    if p.is_pointed and q.is_pointed:
        bottom_idx = p.bottom_idx * len(q) + q.bottom_idx
    return FinPoset(_Record("product", (p, q)), leq, bottom_idx)


def separated_sum(p, q, cap=None):
    """Disjoint union with no cross-order and no identification."""
    _check_cap(len(p) + len(q), cap, "separated sum")
    n, m = len(p), len(q)
    leq = np.zeros((n + m, n + m), dtype=np.bool_)
    leq[:n, :n] = p.leq
    leq[n:, n:] = q.leq
    inj = (np.arange(n, dtype=np.int32), np.arange(n, n + m, dtype=np.int32))
    return FinPoset(_Record("sum", (p, q), inj=inj), leq, None)


def coalesced_sum(p, q, cap=None):
    """Disjoint union with the two bottoms identified; requires pointed."""
    p.require_pointed("coalesced_sum")
    q.require_pointed("coalesced_sum")
    _check_cap(len(p) + len(q) - 1, cap, "coalesced sum")
    bp, bq = p.bottom_idx, q.bottom_idx
    n, off = len(p) + len(q) - 1, len(p)
    leq = np.zeros((n, n), dtype=np.bool_)
    leq[0, :] = True
    _drop_index(p.leq, bp, leq[1:off, 1:off])
    _drop_index(q.leq, bq, leq[off:, off:])
    inj = (np.arange(len(p), dtype=np.int32), np.arange(off - 1, n, dtype=np.int32))
    for i, b in zip(inj, (bp, bq)):  # past the summand's bottom, which goes to 0
        if b:
            i[:b] += 1
        i[b] = 0
    return FinPoset(_Record("coalesced", (p, q), inj=inj), leq, 0)


def lift(p, cap=None):
    """Add one fresh bottom below everything; always pointed."""
    _check_cap(len(p) + 1, cap, "lift")
    n = len(p) + 1
    leq = np.zeros((n, n), dtype=np.bool_)
    leq[0, :] = True
    leq[1:, 1:] = p.leq
    np.fill_diagonal(leq, True)
    return FinPoset(_Record("lift", (p,), inj=(np.arange(1, n, dtype=np.int32),)), leq, 0)


def _tables_to_poset(tables, dom, cod):
    """Build the pointwise-ordered poset of assignment tables."""
    leq = kernels.table_order(tables, cod.leq)
    bottom_idx = None
    if cod.is_pointed:  # the constant bottom table is always enumerated
        bottom_idx = int(np.argmax((tables == cod.bottom_idx).all(axis=1)))
    return FinPoset(_Record("tables", (dom, cod), tables), leq, bottom_idx)


def _rows_within_cap(enum, naive, cap, what, dom, cod, bottom=None):
    """The rows of `enum(limit)`, raising `ElementCapExceeded` past `cap`.

    When the naive bound exceeds `cap`, the monotone maps from `dom` (an
    order matrix, less its `bottom` for strict maps) into a longest chain of
    `cod` are counted first.  Each is a row, so more than `cap` of them
    raise before enumerating.
    """
    if cap is not None and naive > cap:
        if bottom is not None:
            dom = _drop_index(dom, bottom)
        h = len(kernels.levels(cod))
        if kernels.count_chain_maps(dom, h, cap + 1) > cap:
            raise ElementCapExceeded(f"{what} would have > {cap} elements: counted "
                                     f"≥ {cap + 1} maps into a chain of {h}")
    rows = enum(cap + 1 if cap is not None else naive + 1)
    _check_cap(len(rows), cap, what)
    return rows


def fun_space(p, q, cap=DEFAULT_ELEMENT_CAP):
    """All monotone tables p -> q under the pointwise order."""
    tables = _rows_within_cap(
        lambda limit: kernels.enum_monotone_tables(p.leq, q.leq, limit),
        len(q) ** len(p), cap, "function space", p.leq, q.leq)
    return _tables_to_poset(tables, p, q)


def strict_fun_space(p, q, cap=DEFAULT_ELEMENT_CAP):
    """Monotone bottom-strict tables p -> q, pointwise order."""
    p.require_pointed("strict_fun_space")
    q.require_pointed("strict_fun_space")
    tables = _rows_within_cap(
        lambda limit: kernels.enum_monotone_tables(
            p.leq, q.leq, limit, (p.bottom_idx, q.bottom_idx)),
        len(q) ** len(p), cap, "strict function space", p.leq, q.leq, p.bottom_idx)
    return _tables_to_poset(tables, p, q)


_TWO = np.triu(np.ones((2, 2), dtype=np.bool_))  # an upset is a map into the 2-chain


def _masks_to_poset(masks, ground):
    """Build the inclusion-ordered poset of full-ground membership masks."""
    leq = kernels.inclusion_order(masks)
    bottom_idx = int(np.argmax(~masks.any(axis=1)))  # the empty upset
    return FinPoset(_Record("upsets", (ground,), masks), leq, bottom_idx)


def upsets(p, cap=DEFAULT_ELEMENT_CAP):
    """Up-closed subsets of p ordered by inclusion; empty set is bottom."""
    masks = _rows_within_cap(lambda limit: kernels.enum_upsets(p.leq, limit),
                             1 << len(p), cap, "upset poset", p.leq, _TWO)
    return _masks_to_poset(masks, p)


def strict_upsets(p, cap=DEFAULT_ELEMENT_CAP):
    """Up-closed subsets excluding the bottom, ordered by inclusion."""
    p.require_pointed("strict_upsets")
    b = p.bottom_idx
    sub = _drop_index(p.leq, b)
    masks = _rows_within_cap(lambda limit: kernels.enum_upsets(sub, limit),
                             1 << len(sub), cap, "strict upset poset", sub, _TWO)
    full = np.zeros((len(masks), len(p)), dtype=np.bool_)
    full[:, :b], full[:, b + 1:] = masks[:, :b], masks[:, b:]
    return _masks_to_poset(full, p)


def all_posets_upto(n, prefix="e"):
    """All finite posets with at most n elements, one per iso class.

    The candidates of size k are the reflexive upper-triangular matrices,
    in the order of their bit masks over the slots above the diagonal
    (every poset admits a linear extension, so this hits every iso class).
    A candidate is a poset when its boolean square adds nothing to it.  Its
    canonical key is the least packed encoding of its order matrix over
    all k! relabelings, so two candidates are isomorphic exactly when their
    keys agree, and the first candidate of each key is kept.  Candidates go
    through in chunks of at most 8 MB of relabeled matrices;
    feasible up to n = 6.
    """
    out = [empty_poset()]
    for k in range(1, n + 1):
        tags = tuple(f"{prefix}{i}" for i in range(k))
        out.extend(FinPoset(tags, leq, None) for leq in _shapes_of_size(k))
    return out


def _shapes_of_size(k):
    """The first order matrix of each iso class among the k-element
    candidates of `all_posets_upto`, in mask order."""
    rows, cols = np.triu_indices(k, 1)
    perms = np.array(list(permutations(range(k))), dtype=np.intp)
    step = max(1, _SHAPE_CHUNK_BYTES // (len(perms) * k * k))
    total = 1 << len(rows)
    seen, reps = set(), []
    for lo in range(0, total, step):
        masks = np.arange(lo, min(lo + step, total), dtype=np.int64)
        cands = np.zeros((len(masks), k, k), dtype=np.bool_)
        cands[:, np.arange(k), np.arange(k)] = True
        cands[:, rows, cols] = (masks[:, None] >> np.arange(len(rows))) & 1
        cands = cands[(cands @ cands == cands).all(axis=(1, 2))]
        for leq, key in zip(cands, _canonical_keys(cands, perms)):
            if key not in seen:
                seen.add(key)
                reps.append(leq.copy())
    return reps


def _canonical_keys(cands, perms):
    """Per (k, k) order matrix of a stack, the least packed encoding of the
    matrix over every relabeling in `perms`, as bytes.  The least row of
    bytes is found a byte at a time: a relabeling stays alive while its
    bytes so far equal the least ones (a dead one reads 255, which never
    lowers a minimum)."""
    c, k = cands.shape[:2]
    relabeled = cands[:, perms[:, :, None], perms[:, None, :]]
    packed = np.packbits(relabeled.reshape(c, len(perms), k * k), axis=2)
    alive = np.ones(packed.shape[:2], dtype=np.bool_)
    keys = np.empty((c, packed.shape[2]), dtype=np.uint8)
    for b in range(packed.shape[2]):
        byte = packed[:, :, b]
        keys[:, b] = np.where(alive, byte, 255).min(axis=1)
        alive &= byte == keys[:, b, None]
    return [key.tobytes() for key in keys]


def with_declared_bottom(p):
    """The same order with its least element declared, if one exists."""
    for i in range(len(p)):
        if p.leq[i, :].all():
            return p.with_bottom(i)
    return None


# --------------------------------------------------------------------------
# maps, ep-pairs, isos


class MonoMap:
    """A monotone (optionally bottom-strict) map between finite posets."""

    __slots__ = ("dom", "cod", "table", "strict")

    def __init__(self, dom, cod, table, strict=False):
        self.dom = dom
        self.cod = cod
        self.table = table = _frozen_table(table)
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
    def _checked(cls, dom, cod, table, strict):
        """A map whose frozen int32 table the caller has already checked."""
        f = cls.__new__(cls)
        f.dom, f.cod, f.table, f.strict = dom, cod, table, bool(strict)
        return f

    @classmethod
    def auto_strict(cls, dom, cod, table):
        """Set the strict flag whenever it is meaningful and holds."""
        table = _frozen_table(table)
        return cls(dom, cod, table, _auto_strict(dom, cod, table))

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
        return self.dom == self.cod and _is_identity(self.table)

    def is_injective(self):
        return len(set(self.table.tolist())) == len(self.dom)

    def is_surjective(self):
        return len(set(self.table.tolist())) == len(self.cod)


def _frozen_table(table):
    table = np.ascontiguousarray(table, dtype=np.int32)
    table.flags.writeable = False
    return table


def _auto_strict(dom, cod, table):
    """The strict flag of `MonoMap.auto_strict`: the int32 table has one
    entry per domain element (another shape is left for `MonoMap` to
    reject) and keeps the bottom."""
    return table.shape == (len(dom),) and _keeps_bottom(dom, cod, table, True)


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

    An ep-pair is exactly a Galois insertion: an adjunction e -| p with
    p . e = id (Smyth & Plotkin, "The category-theoretic solution of
    recursive domain equations", SIAM J. Comput. 11(4), 1982; Abramsky &
    Jung, *Domain Theory*, 1994, section 3.1).  So the laws are verified
    at construction as one gather, p . e against the identity, and one
    comparison of two |X| x |Y| order slices:

        e(x) <= y   iff   x <= p(y)      for every x in X, y in Y.

    Given p . e = id, this is the same as e and p monotone and
    e . p <= id.  Taking y = e(x) gives x <= p(e(x)), and taking x = p(y)
    gives e(p(y)) <= y.  e is monotone since x <= x' = p(e(x')), and p
    likewise since e(p(y)) <= y <= y'.  The converse follows from
    monotonicity.  The check costs O(|X| |Y|), where checking each map's
    monotonicity costs O(|X|^2 + |Y|^2).

    `from_tables` builds a pair from its two index tables, checking their
    shape and range, the strict flags and the comparison; its maps are not
    validated again.  `EpPair(e, p)` takes two `MonoMap`s and checks the
    laws through the same comparison.  When a check fails, the itemized
    checks run in their old order (each map as `MonoMap` validates it,
    then p . e = id, then e . p <= id), so a rejected pair raises the
    exception that names its first fault.  Any ep-pair held by the engine
    is a checked one.
    """

    __slots__ = ("e", "p")

    def __init__(self, e, p):
        if e.dom != p.cod or e.cod != p.dom:
            raise DomainMismatch("ep pair endpoints do not match")
        if not _galois_insertion(e.dom, e.cod, e.table, p.table):
            _ep_laws(e, p)
        self.e = e
        self.p = p

    @classmethod
    def from_tables(cls, x, y, e, p, strict=None):
        """The ep-pair with embedding table `e` (X -> Y) and projection
        table `p` (Y -> X).  `strict` is the pair of strict flags (for e,
        for p), or None to set each as `MonoMap.auto_strict` does."""
        te, tp = _frozen_table(e), _frozen_table(p)
        if _galois_insertion(x, y, te, tp):
            se, sp = ((_auto_strict(x, y, te), _auto_strict(y, x, tp))
                      if strict is None else strict)
            if _keeps_bottom(x, y, te, se) and _keeps_bottom(y, x, tp, sp):
                pair = cls.__new__(cls)
                pair.e = MonoMap._checked(x, y, te, se)
                pair.p = MonoMap._checked(y, x, tp, sp)
                return pair
        if strict is None:
            return cls(MonoMap.auto_strict(x, y, e), MonoMap.auto_strict(y, x, p))
        return cls(MonoMap(x, y, e, strict[0]), MonoMap(y, x, p, strict[1]))

    @property
    def dom(self):
        return self.e.dom

    @property
    def cod(self):
        return self.e.cod

    def as_iso(self):
        """The pair as an Iso when the embedding is onto, else None.  The
        pair has verified p . e = id, so only e . p = id is checked here."""
        if len(self.dom) != len(self.cod) or not _is_identity(self.e.table.take(self.p.table)):
            return None
        iso = Iso.__new__(Iso)
        iso.forward, iso.backward = self.e, self.p
        return iso

    def then(self, other):
        """Composite ep-pair: embeddings forward, projections backward.  The
        strict flags are those `compose` gives each composite map."""
        if self.cod != other.dom:
            raise DomainMismatch("compose: codomain of first map must match domain of second")
        return EpPair.from_tables(
            self.dom, other.cod,
            other.e.table.take(self.e.table), self.p.table.take(other.p.table),
            (self.e.strict and other.e.strict, other.p.strict and self.p.strict))

    def __repr__(self):
        return f"EpPair({len(self.dom)} -> {len(self.cod)})"


def _keeps_bottom(dom, cod, table, strict):
    """Does the in-range `table` meet its strict flag, as `MonoMap` checks it?"""
    return not strict or (dom.is_pointed and cod.is_pointed
                          and table[dom.bottom_idx] == cod.bottom_idx)


def _galois_insertion(x, y, e, p):
    """Are the int32 tables e: X -> Y and p: Y -> X a Galois insertion:
    of the right lengths and in range, with p . e = id and e(a) <= b iff
    a <= p(b)?  The two order gathers check the range: viewed as unsigned,
    a negative index is out of range too.  A gather that takes nothing
    checks no index, so an empty end is settled by the sizes alone."""
    if e.shape != (len(x),) or p.shape != (len(y),):
        return False
    if not (len(x) and len(y)):
        return len(x) == len(y)
    try:
        below = y.leq.take(e.view(np.uint32), axis=0)  # e(a) <= b
        above = x.leq.take(p.view(np.uint32), axis=1)  # a <= p(b)
    except IndexError:
        return False
    return _is_identity(p.take(e)) and below.tobytes() == above.tobytes()


def _is_identity(table):
    """Is the int32 `table` 0, 1, 2, ...?"""
    return table.tobytes() == np.arange(len(table), dtype=np.int32).tobytes()


def _ep_laws(e, p):
    """The two ep laws of monotone maps e and p, one gather each, raising
    `EpLawViolation` at the first that fails."""
    if not _is_identity(p.table.take(e.table)):
        raise EpLawViolation("p . e is not the identity")
    y = np.arange(len(e.cod))
    if not e.cod.leq[e.table.take(p.table), y].all():
        raise EpLawViolation("e . p is not below the identity")


def identity_ep(p):
    table = np.arange(len(p), dtype=np.int32)
    return EpPair.from_tables(p, p, table, table, (p.is_pointed, p.is_pointed))


def bottom_ep(one, q):
    """The unique ep-pair from the one-point poset: bottom map and bang."""
    q.require_pointed("bottom_ep")
    if len(one) != 1:
        raise DomainMismatch("bottom_ep expects a singleton domain")
    return EpPair.from_tables(one, q, np.array([q.bottom_idx], dtype=np.int32),
                              np.zeros(len(q), dtype=np.int32),
                              (one.is_pointed, one.is_pointed))


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
        if not _is_identity(backward.table.take(forward.table)):
            raise EpLawViolation("backward . forward is not the identity")
        if not _is_identity(forward.table.take(backward.table)):
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


def iso_check(p, q):
    """Witness order-isomorphism between p and q, or None.

    Sound (the witness is verified) and complete; reads orders, never tags.
    Equal orders give the identity at any size; only a search is capped,
    and above DEFAULT_ISO_CAP elements raises SizeCapExceeded.  There
    `kernels.find_isomorphism` decides: the number of comparable pairs, the
    sorted (below, above) degrees and the sorted neighbourhood labels reject
    most pairs at once; the backtracking search behind them prunes with an
    individualization-refinement cut, so regular orders such as the
    incidence orders of C_2n and 2.C_n decide in milliseconds.  A search
    that runs out of its step budget (`kernels.ISO_STEP_BUDGET`, about four
    seconds of work) raises SearchBudgetExceeded, never an unproved None.
    No result path calls it: `mediator.compare_stages` compares orders.
    """
    if len(p) != len(q):
        return None
    if np.array_equal(p.leq, q.leq):
        return _iso_from_perm(p, q, np.arange(len(p), dtype=np.int32))
    if len(p) > DEFAULT_ISO_CAP:
        raise SizeCapExceeded(f"iso_check cap {DEFAULT_ISO_CAP} exceeded")
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
    return [(p.elements[i], p.elements[j]) for i, j in _covers(p)]


def _covers(p):
    """Index pairs (i, j) of the covers i < j, in row-major order.  The
    pairs with an element strictly between come from a float32 product,
    which runs through BLAS where a boolean one does not; its terms are 0
    or 1, so a positive entry is exactly a path of two steps."""
    lt = p.leq & ~np.eye(len(p), dtype=np.bool_)
    f = lt.astype(np.float32)
    return np.argwhere(lt & ~((f @ f) > 0)).tolist()


def tag_to_json(tag):
    if isinstance(tag, str):
        return tag
    return [tag_to_json(part) for part in tag]


def tag_from_json(obj):
    """The tag of a JSON array tree, read as a list or, as in a report not
    yet dumped, a tuple."""
    if isinstance(obj, str):
        return obj
    if isinstance(obj, (list, tuple)):
        return tuple(map(tag_from_json, obj))
    raise InputError(f"bad element tag in JSON: {obj!r}")


def _is_pair_list(obj):
    return isinstance(obj, (list, tuple)) and all(
        isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in obj)


def tag_pairs_from_json(obj, what):
    """The tag pairs of a JSON list of two-member lists, else InputError."""
    if not _is_pair_list(obj):
        raise InputError(f"{what} must be a list of pairs")
    return [(tag_from_json(a), tag_from_json(b)) for a, b in obj]


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


def _poset_to_index_json(p):
    """The index form that `poset_from_json` reads back: the element tags
    (tuples, which `json` writes as arrays), the covers of `_covers` and
    the bottom's index."""
    return {"elements": list(p.elements), "covers": _covers(p), "bottom": p.bottom_idx}


def poset_from_json(obj):
    """A poset from its JSON object: `elements`, a list of tags, and then
    either `leq`, generating order pairs of tags, with `bottom` a tag (the
    constants-file form, optional fields), or `covers`, generating pairs of
    element indices, with `bottom` an index (a report's pool entry)."""
    if not isinstance(obj, dict) or not isinstance(obj.get("elements"), list):
        raise InputError("poset JSON must be an object with an 'elements' list")
    elements = [tag_from_json(e) for e in obj["elements"]]
    if "covers" in obj:
        return _poset_from_index_pairs(elements, obj["covers"], obj.get("bottom"))
    pairs = tag_pairs_from_json(obj.get("leq", []), "'leq'")
    bottom = obj.get("bottom")
    bottom = tag_from_json(bottom) if bottom is not None else None
    return validate_poset(elements, pairs, bottom)


def poset_to_dot(p, name="poset"):
    """DOT rendering of the Hasse diagram, bottom drawn lowest, each element
    labelled by `element_labels`."""
    lines = [f'digraph "{name}" {{', "  rankdir=BT;", "  node [shape=box];"]
    for i, label in enumerate(element_labels(p)):
        style = ' style=bold' if i == p.bottom_idx else ""
        lines.append(f'  n{i} [label="{_dot_escape(label)}"{style}];')
    lines += [f"  n{i} -> n{j};" for i, j in _covers(p)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(s):
    return s.replace("\\", "\\\\").replace('"', '\\"')


# --------------------------------------------------------------------------
# element forms: a constructed poset's elements by index into its operands

_HEADS = {"inl": "l.", "inr": "r.", "lup": "^"}


def element_forms(p):
    """Each element of a constructed poset as its head and the indices of
    its parts in p's operands, as JSON-ready lists: a pair `[i, j]`, a sum
    or lift element `["inl", i]`, `["inr", j]`, `["lup", i]`, `["cbot"]` or
    `["lbot"]`, a table its row of codomain indices and an upset its member
    indices.  They are read from the record, so no tag is built."""
    rec = p._record
    kind, kids = rec.kind, rec.children
    if kind == "product":
        right = range(len(kids[1]))
        return [[i, j] for i in range(len(kids[0])) for j in right]
    if kind == "tables":
        return rec.rows.tolist()
    if kind == "upsets":
        ground = range(rec.rows.shape[1])
        return [list(compress(ground, row)) for row in rec.rows.tolist()]
    if kind == "lift":
        return [["lbot"]] + [["lup", i] for i in range(len(kids[0]))]
    forms = [["cbot"]] * len(p)  # a sum: each summand's indices at its injection
    for head, inj in zip(("inl", "inr"), rec.inj):
        for i, k in enumerate(inj.tolist()):
            forms[k] = [head, i]
    if kind == "coalesced":
        forms[0] = ["cbot"]  # where both summands' bottoms went
    return forms


def element_labels(p):
    """Display labels of p's elements: a leaf's tags by `pretty_tag`, a
    constructed poset's element forms as `(i,j)`, `l.i`, `r.j`, `^i`, `_|_`,
    `<0,2,1>` for a table and `{i,j}` for an upset."""
    kind = p._record.kind
    if kind is None:
        return [pretty_tag(t) for t in p.elements]
    forms = element_forms(p)
    if kind in ("tables", "upsets"):
        left, right = "<>" if kind == "tables" else "{}"
        return [left + ",".join(map(str, f)) + right for f in forms]
    if kind == "product":
        return [f"({i},{j})" for i, j in forms]
    return [_HEADS[f[0]] + str(f[1]) if len(f) == 2 else "_|_" for f in forms]


def _strict_space(p):
    """Does every element of a table or upset poset keep the bottom: each
    table sends the pointed domain's bottom to the pointed codomain's, or
    no upset of a pointed ground holds its bottom?"""
    rec = p._record
    if rec.kind == "tables":
        dom, cod = rec.children
        return (dom.is_pointed and cod.is_pointed
                and bool((rec.rows[:, dom.bottom_idx] == cod.bottom_idx).all()))
    ground = rec.children[0]
    return ground.is_pointed and not rec.rows[:, ground.bottom_idx].any()


# the layout constructors, with their sizes from their operands' sizes
_LAYOUTS = {
    "product": (product, lambda n, m: n * m),
    "sum": (separated_sum, lambda n, m: n + m),
    "coalesced": (coalesced_sum, lambda n, m: n + m - 1),
    "lift": (lift, lambda n: n + 1),
}
_ARITY = {"product": 2, "sum": 2, "coalesced": 2, "lift": 1, "tables": 2, "upsets": 1}


def poset_from_forms(kind, children, forms, bottom, strict):
    """The poset of `kind` over the `children` posets whose elements have
    the `element_forms` `forms`, declaring `bottom` (an index or None): the
    report loader's rebuild.  The order comes from the constructors'
    layouts and kernels, and nothing is enumerated.  Every form is checked:
    a product's, sum's or lift's must be its constructor's, in order; table
    rows must be distinct, in range and monotone, upsets distinct and
    up-closed; with `strict` every table keeps the bottom and no upset holds
    it.  A declared bottom must be least.  A fault raises InputError."""
    if not isinstance(kind, str) or kind not in _ARITY:
        raise InputError(f"unknown construction kind {kind!r}")
    if len(children) != _ARITY[kind]:
        raise InputError(f"a {kind} has {_ARITY[kind]} operands, not {len(children)}")
    if kind == "tables":
        p = _tables_from_forms(*children, forms, strict)
    elif kind == "upsets":
        p = _upsets_from_forms(*children, forms, strict)
    else:
        build, size = _LAYOUTS[kind]
        if kind == "coalesced" and not all(c.is_pointed for c in children):
            raise InputError("a coalesced sum needs pointed summands")
        n = size(*map(len, children))
        if len(forms) != n:
            raise InputError(f"a {kind} of these operands has {n} elements, not {len(forms)}")
        p = build(*children)
        if element_forms(p) != forms:
            raise InputError(f"the elements of a {kind} disagree with its layout")
    if bottom is not None and (type(bottom) is not int or not 0 <= bottom < len(p)):
        raise InputError(f"bottom must be element indices below {len(p)}")
    if bottom != p.bottom_idx:  # a layout's own bottom is least by construction
        if bottom is not None and not p.leq[bottom].all():
            raise InputError(f"bottom {bottom} is not below every element")
        p = p.with_bottom(bottom)
    return p


def _index_rows(forms, width, bound, what):
    """The lists `forms`, each of `width` indices below `bound`, as the rows
    of a distinct int32 array, else InputError."""
    if not all(type(f) is list and len(f) == width for f in forms):
        raise InputError(f"{what} must be lists of {width} element indices")
    flat = _indices([v for f in forms for v in f], bound, what)
    return _distinct(flat.astype(np.int32).reshape(len(forms), width), what)


def _distinct(rows, what):
    if len(set(_row_keys(rows))) != len(rows):
        raise InputError(f"{what} list an element twice")
    return rows


def _tables_from_forms(dom, cod, forms, strict):
    rows = _index_rows(forms, len(dom), len(cod), "table rows")
    if len(dom) > 1 and not kernels.monotone_rows(dom.leq, cod.leq, rows).all():
        raise InputError("a table row is not monotone")
    if strict and not (dom.is_pointed and cod.is_pointed
                       and (rows[:, dom.bottom_idx] == cod.bottom_idx).all()):
        raise InputError("a strict table does not keep the bottom")
    return FinPoset(_Record("tables", (dom, cod), rows), kernels.table_order(rows, cod.leq))


def _upsets_from_forms(ground, forms, strict):
    if not all(type(f) is list for f in forms):
        raise InputError("upsets must be lists of member indices")
    members = _indices([v for f in forms for v in f], len(ground), "upset members")
    masks = np.zeros((len(forms), len(ground)), dtype=np.bool_)
    masks[np.repeat(np.arange(len(forms)), [len(f) for f in forms]), members] = True
    if np.count_nonzero(masks) != len(members):
        raise InputError("an upset lists a member twice")
    _distinct(masks, "upsets")
    below, above = np.nonzero(ground.leq)
    if (masks[:, below] > masks[:, above]).any():
        raise InputError("an upset is not up-closed")
    if strict and not (ground.is_pointed and not masks[:, ground.bottom_idx].any()):
        raise InputError("a strict upset holds the bottom")
    return FinPoset(_Record("upsets", (ground,), masks), kernels.inclusion_order(masks))
