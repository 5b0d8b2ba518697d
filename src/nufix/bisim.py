"""Bisimulation games, relation lifting, and quotient coalgebras.

Value-passing systems are input/output machines over a finite value set:
each state either inputs a value (a total continuation table) or outputs
one.  Three equivalence notions live here:

* the plain value-passing game (`value_bisim`),
* the game up to a value equivalence (`dimmed_bisim`), and
* coalgebraic bisimulation by structural relation lifting (`coalg_bisim`).

`value_bisim` and `dimmed_bisim` refine the disjoint union of the two
systems into blocks over their index rows (`LtsSpec.rows`), after Paige &
Tarjan's partition refinement, and relate the states of one live block.
The matching game stays as the checker and the oracle (`is_game_bisim`,
`quotient`, `lemma1_check`, `laws.law_bisim_refinement`).  Every engine
computes a boolean matrix over state indices (the game and the lifting
with any leading batch axes); a `Relation` holds that matrix, and its tag
pairs and JSON are views of it.  The game and the lifting engine share
only the greatest-fixpoint loop, which drops every failing pair per round.
The game reads only the systems' index rows; the lifting side lifts the
relation through the functor and compares structure values by index.  So
their coincidence on quotient instances is a genuine cross-check, not a
tautology; `lemma1_check` runs it exhaustively at desk scale, playing the
game on and lifting every candidate relation in one batched call each.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import engine as _engine
from .errors import (
    InputError,
    InstanceMismatch,
    NotABisimulation,
    NotEquivalence,
    SizeCapExceeded,
    ValueSetMismatch,
)
from .functors import Backend, CoalgebraSpec, _pair_matrix, instantiate, lifted_related, parse
from .posets import discrete, tag_from_json, tag_pairs_from_json, tag_sort_key, tag_to_json

VALUE_FAMILY = "(V -> Id) + W"
_LEMMA1_SIZE_CAP = (3, 2)  # (states, values): lemma1_check lifts 2^(states^2) relations
_EQUIVALENCE_ROWS = 1024  # the equivalence test's row chunk: 20 MB of temporaries at 10^4


# --------------------------------------------------------------------------
# relations and equivalences


class Relation:
    """A relation between two carriers, held as the boolean |left| x |right|
    matrix over their indices; the tag pairs are a view of it."""

    def __init__(self, left, right, pairs):
        self.left, self.right = tuple(left), tuple(right)
        self.matrix = _pair_matrix(self.left, self.right, pairs)

    @classmethod
    def _of(cls, left, right, m):
        """The relation of a boolean |left| x |right| matrix, not copied."""
        rel = cls.__new__(cls)
        rel.left, rel.right, rel.matrix = left, right, m
        return rel

    @cached_property
    def pairs(self):
        i, j = np.nonzero(self.matrix)
        return frozenset(zip(map(self.left.__getitem__, i.tolist()),
                             map(self.right.__getitem__, j.tolist())))

    def __contains__(self, pair):
        a, b = pair
        return (a in self.left and b in self.right
                and self.matrix[self.left.index(a), self.right.index(b)])

    def __len__(self):
        return int(np.count_nonzero(self.matrix))

    @property
    def is_equivalence(self):
        """Both carriers list the same tags, and the matrix is an equivalence."""
        m = self.matrix
        if self.right != self.left:
            if set(self.right) != set(self.left):
                return False
            column = {y: j for j, y in enumerate(self.right)}  # the same tags in another order
            m = m[:, [column[x] for x in self.left]]
        return bool(_equivalence_flags(m))

    def _sorted_indices(self):
        """The related pairs' row and column indices, in their tags' order."""
        i, j = np.nonzero(self.matrix)
        if len(i):  # ranking sorts the carriers, which an empty relation does not need
            rank_left = _ranks(self.left)
            rank_right = rank_left if self.right == self.left else _ranks(self.right)
            order = np.lexsort((rank_right[j], rank_left[i]))
            i, j = i[order], j[order]
        return i.tolist(), j.tolist()

    def sorted_pairs(self):
        left, right = self.left, self.right
        return [(left[i], right[j]) for i, j in zip(*self._sorted_indices())]

    def to_json(self):
        return [[tag_to_json(a), tag_to_json(b)] for a, b in self.sorted_pairs()]


def _ranks(carrier):
    """Each tag's position in `tag_sort_key` order of the carrier: the sorted
    index list, inverted in one pass."""
    ranks = [0] * len(carrier)
    for rank, i in enumerate(sorted(range(len(carrier)), key=lambda i: tag_sort_key(carrier[i]))):
        ranks[i] = rank
    return np.array(ranks)


def _equivalence_flags(m):
    """Which square relation matrices (any leading batch axes) are
    equivalences, compared in row chunks: an equivalence is the kernel of
    `rep`, each element's first related index, and every kernel is one."""
    flags = np.ones(m.shape[:-2], dtype=np.bool_)
    if not m.shape[-1]:
        return flags
    rep = m.argmax(-1)
    for lo in range(0, m.shape[-2], _EQUIVALENCE_ROWS):
        kernel = rep[..., lo:lo + _EQUIVALENCE_ROWS, None] == rep[..., None, :]
        flags &= (m[..., lo:lo + _EQUIVALENCE_ROWS, :] == kernel).all(axis=(-2, -1))
    return flags


def relation_from_json(obj, left, right):
    return Relation(left, right, tag_pairs_from_json(obj, "relation JSON"))


@dataclass(frozen=True)
class Equivalence:
    """A partition; blocks are canonically sorted for determinism."""

    blocks: tuple

    def __post_init__(self):
        block_of = {}  # element -> its block, the very tuple in self.blocks
        for block in self.blocks:
            if not block:
                raise NotEquivalence("empty block")
            for x in block:
                if x in block_of:
                    raise NotEquivalence(f"element {x!r} appears in two blocks")
                block_of[x] = block
        object.__setattr__(self, "_block_of", block_of)

    @classmethod
    def from_blocks(cls, blocks):
        blocks = [tuple(sorted(b, key=tag_sort_key)) for b in blocks]
        if not all(blocks):  # before the sort below reads each block's first member
            raise NotEquivalence("empty block")
        return cls(tuple(sorted(blocks, key=lambda b: tag_sort_key(b[0]))))

    @classmethod
    def identity(cls, carrier):
        return cls.from_blocks([[x] for x in carrier])

    @classmethod
    def total(cls, carrier):
        carrier = list(carrier)
        return cls.from_blocks([carrier] if carrier else [])

    @classmethod
    def from_pairs(cls, carrier, pairs):
        rel = Relation(carrier, carrier, pairs)
        if not rel.is_equivalence:
            raise NotEquivalence("pair set is not an equivalence relation")
        blocks = {}  # an equivalence's classes share their first related index
        for x, first in zip(rel.left, rel.matrix.argmax(-1).tolist() if rel.left else ()):
            blocks.setdefault(first, []).append(x)
        return cls.from_blocks(list(blocks.values()))

    def carrier(self):
        return tuple(x for block in self.blocks for x in block)

    def class_of(self, x):
        if x not in self._block_of:
            raise InputError(f"{x!r} not covered by the partition")
        return self._block_of[x]

    def related(self, a, b):
        return self._block_of.get(b) is self.class_of(a)

    def as_pairs(self):
        return frozenset((a, b) for block in self.blocks for a in block for b in block)

    def class_tag(self, x):
        return ("cls", self.class_of(x))

    def class_tags(self):
        return [("cls", block) for block in self.blocks]

    def to_json(self):
        return [[tag_to_json(x) for x in block] for block in self.blocks]


def equivalence_from_json(obj):
    if not isinstance(obj, list) or not all(isinstance(block, list) for block in obj):
        raise InputError("equivalence JSON must be a list of blocks, each a list")
    return Equivalence.from_blocks([[tag_from_json(x) for x in block] for block in obj])


# --------------------------------------------------------------------------
# value-passing systems


INPUT = "input"
OUTPUT = "output"


class LtsSpec:
    """A value-passing system: states either input (total table over the
    value set) or output a value.

    `rows` holds, for each state in `states` order, the tuple of its
    successors' state indices in `values` order (an input state) or the
    index of its output value (an output state); the games read only these.
    """

    def __init__(self, values, states, behaviour):
        self.values = tuple(values)
        self.states = tuple(states)
        if len(set(self.values)) != len(self.values):
            raise InputError("duplicate values")
        if len(set(self.states)) != len(self.states):
            raise InputError("duplicate states")
        if set(behaviour) != set(self.states):
            raise InputError("behaviour must cover exactly the states")
        self.behaviour = {}
        rows = []
        value = {p: i for i, p in enumerate(self.values)}
        state = {x: i for i, x in enumerate(self.states)}
        for x in self.states:
            kind, payload = behaviour[x]
            if kind == INPUT:
                if payload.keys() != value.keys():
                    raise InputError(f"input table of {x!r} must be total over the values")
                try:
                    rows.append(tuple([state[payload[p]] for p in self.values]))
                except KeyError:
                    raise InputError(f"input table of {x!r} leaves the state set") from None
                self.behaviour[x] = (INPUT, dict(payload))
            elif kind == OUTPUT:
                if payload not in value:
                    raise InputError(f"output of {x!r} is not a value")
                self.behaviour[x] = (OUTPUT, payload)
                rows.append(value[payload])
            else:
                raise InputError(f"unknown behaviour kind {kind!r}")
        self.rows = tuple(rows)

    def kind(self, x):
        return self.behaviour[x][0]

    def cont(self, x, p):
        kind, payload = self.behaviour[x]
        if kind != INPUT:
            raise InputError(f"{x!r} is not an input state")
        return payload[p]

    def to_json(self):
        beh = {}
        for x in self.states:
            kind, payload = self.behaviour[x]
            if kind == INPUT:
                beh[str(x)] = {"input": {str(p): tag_to_json(payload[p]) for p in self.values}}
            else:
                beh[str(x)] = {"output": tag_to_json(payload)}
        return {
            "values": [tag_to_json(v) for v in self.values],
            "states": [tag_to_json(s) for s in self.states],
            "behaviour": beh,
        }


def lts_from_json(obj):
    if not isinstance(obj, dict) or not {"values", "states", "behaviour"} <= set(obj):
        raise InputError("lts JSON needs values, states, behaviour")
    values, states, specs = obj["values"], obj["states"], obj["behaviour"]
    if not (isinstance(values, list) and isinstance(states, list) and isinstance(specs, dict)):
        raise InputError("lts JSON needs lists of values and states and a behaviour object")
    if not all(isinstance(t, str) for t in values + states):
        raise InputError("values and states must be JSON strings")
    behaviour = {}
    for x, spec in specs.items():
        kinds = [k for k in (INPUT, OUTPUT) if k in spec] if isinstance(spec, dict) else []
        if len(kinds) != 1:
            raise InputError(f"state {x!r} needs one 'input' or 'output' entry")
        payload = spec[kinds[0]]
        if kinds == [OUTPUT]:
            entries = [payload]
        elif isinstance(payload, dict):
            entries = payload.values()
        else:
            raise InputError(f"input table of {x!r} must be an object")
        if not all(isinstance(t, str) for t in entries):
            raise InputError(f"the {kinds[0]} entries of {x!r} must be JSON strings")
        behaviour[x] = (kinds[0], payload)
    return LtsSpec(values, states, behaviour)


def lts_instance(values):
    """The value-passing instance F(P, P) over discrete posets."""
    v = discrete(sorted(values, key=tag_sort_key))
    return instantiate(parse(VALUE_FAMILY), Backend.PLAIN, v, v)


def lts_to_coalgebra(lts, inst=None):
    """Encode a value-passing system as a coalgebra of F(P, P)."""
    inst = inst or lts_instance(lts.values)
    carrier = discrete(lts.states)
    order = inst.v.elements
    structure = {}
    for x in lts.states:
        kind, payload = lts.behaviour[x]
        if kind == INPUT:
            structure[x] = ("inl", ("table", tuple(payload[p] for p in order)))
        else:
            structure[x] = ("inr", payload)
    return CoalgebraSpec(inst, carrier, structure)


# --------------------------------------------------------------------------
# the matching game and its refinement (independent of relation lifting)


def _arrays(lts):
    """`lts.rows` as arrays: input flags, the successor table (states x
    values, zero at output states) and output value indices (-1 at input
    states)."""
    out = np.array([-1 if type(row) is tuple else row for row in lts.rows], dtype=np.intp)
    succ = np.zeros((len(out), len(lts.values)), dtype=np.intp)
    inputs = out < 0
    if inputs.any():
        succ[inputs] = [row for row in lts.rows if type(row) is tuple]
    return inputs, succ, out


def _game(lts1, lts2, related_values):
    """The matching game on state indices: the |S1| x |S2| masks of the
    pairs failing the shape and the output clause, and the round predicate
    `failing(R)` that adds the input pairs whose matched successors R (with
    any leading batch axes) leaves unrelated."""
    in1, succ1, out1 = arrays = _arrays(lts1)
    in2, succ2, out2 = arrays if lts2 is lts1 else _arrays(lts2)
    # value pairs matched by identity, padded with an all-true row and
    # column that index -1 (an input state's output) reads
    match = np.ones((len(lts1.values) + 1, len(lts2.values) + 1), dtype=np.bool_)
    match[:-1, :-1] = [[related_values(p, q) for q in lts2.values] for p in lts1.values]
    shape = in1[:, None] != in2
    output = ~match[out1[:, None], out2]
    static, inputs = shape | output, in1[:, None] & in2
    p, q = np.nonzero(match[:-1, :-1])
    after1, after2 = succ1[:, p][:, None], succ2[:, q][None]  # (S1, 1, m), (1, S2, m)

    def failing(rel):
        return static | (inputs & ~rel[..., after1, after2].all(axis=-1))

    return shape, output, failing


def _greatest_relation(left, right, failing):
    """Greatest R within left x right that `failing(R)` finds no pair of.
    Each round drops every pair failing against that round's matrix;
    passing is monotone in R, so the removal order cannot change R."""
    rel = np.ones((len(left), len(right)), dtype=np.bool_)
    while (drop := rel & failing(rel)).any():
        rel &= ~drop
    return Relation._of(left, right, rel)


def _refine(rows, ties):
    """Coarsest partition of states that the matching game cannot split:
    each state's block id, or -1 for a dead state, one that is related to
    nothing, not even itself.

    A row is an output state's value class, or the tuple of an input
    state's successors, one per value class.  Output states start in one
    block per class and are never looked at again.  An input state's
    signature is the tuple of its successors' blocks; it is dead
    when a successor is dead or when a pair in `ties[x]` (successors on
    values of one class) lies in two blocks.  A worklist refinement: when a
    block splits, its largest part keeps the id, and only the predecessors
    of the states that moved are looked at again.  So a state moves
    O(log n) times, and a split costs the parts that move, not the block.
    """
    preds = [[] for _ in rows]
    first = {}  # the input states, and the output states by class
    for x, row in enumerate(rows):
        if type(row) is tuple:
            first.setdefault(None, []).append(x)
            for y in row:
                preds[y].append(x)
        else:
            first.setdefault(row, []).append(x)
    for x, pairs in ties.items():
        for y, z in pairs:
            preds[y].append(x)
            preds[z].append(x)
    block = [0] * len(rows)
    members = []  # block id -> its states
    for xs in first.values():
        for x in xs:
            block[x] = len(members)
        members.append(set(xs))
    # block id -> the signature of its states when it last split; a state not
    # looked at still has it, since none of its successors has moved since
    sig_of = [None] * len(members)
    dirty = first.get(None, ())
    while dirty:
        looked = {}
        for x in dirty:
            if block[x] >= 0:
                looked.setdefault(block[x], []).append(x)
        splits = []  # every signature is taken before any state moves
        for b, xs in looked.items():
            parts = {}
            for x in xs:
                sig = tuple([block[y] for y in rows[x]])
                if -1 in sig or x in ties and any(block[y] != block[z] for y, z in ties[x]):
                    sig = None
                parts.setdefault(sig, []).append(x)
            rest = len(members[b]) - len(xs)
            if len(parts) > 1 or sig is None or rest and sig != sig_of[b]:
                splits.append((b, parts, rest))
            elif not rest:  # every state of b has the one new signature
                sig_of[b] = sig
        moved = []
        for b, parts, rest in splits:
            old = sig_of[b]
            sizes = {sig: len(xs) for sig, xs in parts.items()}
            if rest:  # the states not looked at form a part with the old signature
                sizes[old] = sizes.get(old, 0) + rest
            keep = max((sig for sig in sizes if sig is not None), key=sizes.get, default=None)
            mine = members[b]
            for sig, xs in parts.items():
                if sig is not None and (sig == keep or rest and sig == old):
                    continue
                mine.difference_update(xs)
                moved += xs
                if sig is None:
                    new = -1
                else:
                    new = len(members)
                    members.append(set(xs))
                    sig_of.append(sig)
                for x in xs:
                    block[x] = new
            if rest and keep != old:  # the old part moves out and the keeper takes b
                kept = parts[keep]
                mine.difference_update(kept)
                new = len(members)
                members.append(mine)
                sig_of.append(old)
                for x in mine:
                    block[x] = new
                moved += mine
                members[b] = set(kept)
            sig_of[b] = keep
        dirty = {x for y in moved for x in preds[y]}
    return block


def _class_rows(lts, classes, offset):
    """`lts`'s rows over value `classes`, its states numbered from `offset`:
    an output state's class, or an input state's successors at the first
    value of each class; and, for each input state whose successors on one
    class differ, those pairs of successors."""
    value = {p: i for i, p in enumerate(lts.values)}
    heads = [value[c[0]] for c in classes]
    tails = [(value[c[0]], value[p]) for c in classes for p in c[1:]]
    if not offset and heads == list(range(len(heads))) and not tails:
        return lts.rows, {}  # one value per class, in the system's order
    out = [0] * len(value)
    for i, c in enumerate(classes):
        for p in c:
            out[value[p]] = i
    rows, ties = [], {}
    for x, row in enumerate(lts.rows, offset):
        if type(row) is int:
            rows.append(out[row])
            continue
        rows.append(tuple([row[k] + offset for k in heads]))
        pairs = [(row[h] + offset, row[k] + offset) for h, k in tails if row[h] != row[k]]
        if pairs:
            ties[x] = pairs
    return tuple(rows), ties


def _greatest_bisim(lts1, lts2, classes):
    """Greatest bisimulation between two systems over the same values,
    matching values within each of `classes`, by refining the disjoint
    union of the systems (one copy when they are the same system): two
    states are related when they end in one live block."""
    n1 = len(lts1.states)
    rows, ties = _class_rows(lts1, classes, 0)
    if lts2 is not lts1:
        rows2, ties2 = _class_rows(lts2, classes, n1)
        rows, ties = rows + rows2, {**ties, **ties2}
    block = _refine(rows, ties)
    b1 = np.array(block[:n1], dtype=np.intp)
    b2 = np.array([b if b >= 0 else -2 for b in (block[n1:] if lts2 is not lts1 else block)],
                  dtype=np.intp)  # so a dead state's -1 meets nothing: it is related to nothing
    return Relation._of(lts1.states, lts2.states, b1[:, None] == b2)


def value_bisim(lts1, lts2):
    """Greatest plain value-passing bisimulation between two systems."""
    if set(lts1.values) != set(lts2.values):
        raise ValueSetMismatch("the two systems exchange different value sets")
    return _greatest_bisim(lts1, lts2, [(p,) for p in lts1.values])


def dimmed_bisim(lts1, lts2, approx):
    """Greatest bisimulation matching values only up to `approx`."""
    if set(lts1.values) != set(lts2.values):
        raise ValueSetMismatch("the two systems exchange different value sets")
    _check_partition(approx, lts1)
    return _greatest_bisim(lts1, lts2, approx.blocks)


def _check_partition(approx, lts):
    if set(approx.carrier()) != set(lts.values):
        raise NotEquivalence("approx must partition the value set")


def is_game_bisim(lts1, lts2, pairs, approx=None):
    """Is the given pair set a (dimmed) bisimulation?  Returns the first
    violation in tag order as ((x, y), clause) or None."""
    shape, output, failing = _game(lts1, lts2, operator.eq if approx is None else approx.related)
    rel = _pair_matrix(lts1.states, lts2.states, pairs)
    bad = rel & failing(rel)
    if not bad.any():
        return None
    rows, cols = Relation._of(lts1.states, lts2.states, bad)._sorted_indices()
    i, j = rows[0], cols[0]
    clause = ("shape-match" if shape[i, j] else
              "output-match" if output[i, j] else "input-match")
    return (lts1.states[i], lts2.states[j]), clause


# --------------------------------------------------------------------------
# quotient construction


def quotient(lts, relation, approx):
    """The quotient coalgebra over the class-valued instance.

    `relation` must be an equivalence on the states and a `approx`-
    bisimulation; the structure map sends a state class to the class-
    indexed table (or output class) computed from any representative,
    and representative independence is re-verified.
    """
    _check_partition(approx, lts)
    if isinstance(relation, Equivalence):
        state_eq = relation
    else:
        if not relation.is_equivalence:
            raise NotABisimulation("state relation must be an equivalence")
        state_eq = Equivalence.from_pairs(lts.states, relation.pairs)
    if is_game_bisim(lts, lts, state_eq.as_pairs(), approx) is not None:
        raise NotABisimulation("state relation is not a bisimulation up to approx")
    vq = discrete(sorted(approx.class_tags(), key=tag_sort_key))
    inst = instantiate(parse(VALUE_FAMILY), Backend.PLAIN, vq, vq)
    carrier = discrete(sorted(state_eq.class_tags(), key=tag_sort_key))
    structure = {}
    for block in state_eq.blocks:
        rows = set()
        for x in block:
            kind, payload = lts.behaviour[x]
            if kind == INPUT:
                table = (state_eq.class_tag(lts.cont(x, cls[1][0])) for cls in vq.elements)
                rows.add(("inl", ("table", tuple(table))))
            else:
                rows.add(("inr", approx.class_tag(payload)))
        if len(rows) != 1:
            raise NotABisimulation(f"structure of class {block!r} depends on the representative")
        structure[("cls", block)] = rows.pop()
    inputs = [x for x in state_eq.carrier() if lts.kind(x) == INPUT]
    for x, cls in itertools.product(inputs, vq.elements):  # value-representative independence
        if len({state_eq.class_tag(lts.cont(x, p)) for p in cls[1]}) != 1:
            raise NotABisimulation(f"class table of {x!r} depends on the value representative")
    return CoalgebraSpec(inst, carrier, structure)


# --------------------------------------------------------------------------
# coalgebraic bisimulation via relation lifting


def _separated(coalg1, coalg2, rel, param_rel=None):
    """The pairs of `rel` whose structure values the lifting of `rel`
    separates; `rel` holds |x| x |y| matrices with any leading batch axes."""
    lifted = lifted_related(coalg1.inst, rel, coalg1.carrier, coalg2.carrier, param_rel)
    return rel & ~lifted[..., coalg1.as_map().table[:, None], coalg2.as_map().table]


def coalg_bisim(coalg1, coalg2):
    """Greatest relation R with lifted-related structure values."""
    if not coalg1.inst.same_instance(coalg2.inst):
        raise InstanceMismatch("coalgebras live over different instances")
    left, right = coalg1.carrier.elements, coalg2.carrier.elements
    return _greatest_relation(left, right, lambda rel: _separated(coalg1, coalg2, rel))


def is_lifting_bisim(coalg1, coalg2, pairs, param_rel=None):
    rel = _pair_matrix(coalg1.carrier, coalg2.carrier, pairs)
    return not _separated(coalg1, coalg2, rel, param_rel).any()


def behavioural_equiv(coalg, final):
    """Kernel partition of the coinductive extension into the final
    coalgebra: two states are identified exactly when they denote the
    same abstract behaviour."""
    ext = _engine.coinductive_extension(coalg, final)
    groups = {}
    for x, image in zip(coalg.carrier.elements, ext.table.tolist()):
        groups.setdefault(image, []).append(x)
    return Equivalence.from_blocks(list(groups.values()))


# --------------------------------------------------------------------------
# the quotient-instance equivalence check


def lemma1_check(lts, approx):
    """Exhaustively compare the game predicate with the lifting predicate.

    For every relation R on the states: 'R is an approx-bisimulation'
    (game engine) must coincide with 'R is a lifting bisimulation of the
    quotient-parameterised instance' (structural lifting with approx at
    the parameter positions).  Equivalence relations among them are also
    pushed through the quotient constructor as a further cross-check.
    Returns (True, None) or (False, counterexample_pairs).
    """
    max_states, max_values = _LEMMA1_SIZE_CAP
    if len(lts.states) > max_states or len(lts.values) > max_values:
        raise SizeCapExceeded("lemma1_check is exhaustive; inputs are capped")
    _check_partition(approx, lts)
    coalg = lts_to_coalgebra(lts)
    n = len(lts.states)
    masks = np.arange(1 << (n * n))  # bit i of a mask is the pair (i // n, i % n)
    stack = (masks[:, None] >> np.arange(n * n) & 1).astype(np.bool_).reshape(len(masks), n, n)
    is_lifting = ~_separated(coalg, coalg, stack, approx.as_pairs()).any(axis=(1, 2))
    is_game = ~(stack & _game(lts, lts, approx.related)[2](stack)).any(axis=(1, 2))
    is_equivalence = _equivalence_flags(stack)
    for k in np.flatnonzero((is_game != is_lifting) | is_equivalence).tolist():
        rel = Relation._of(lts.states, lts.states, stack[k])
        if is_game[k] != is_lifting[k]:
            return False, rel.pairs
        try:
            quotient(lts, rel, approx)
            built = True
        except NotABisimulation:
            built = False
        if built != is_game[k]:
            return False, rel.pairs
    return True, None
