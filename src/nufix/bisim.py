"""Bisimulation games, relation lifting, and quotient coalgebras.

Value-passing systems are input/output machines over a finite value set:
each state either inputs a value (a total continuation table) or outputs
one.  Three equivalence notions live here:

* the plain value-passing game (`value_bisim`),
* the game up to a value equivalence (`dimmed_bisim`), and
* coalgebraic bisimulation by structural relation lifting (`coalg_bisim`).

`value_bisim` and `dimmed_bisim` refine the disjoint union of the two
systems into blocks over their index rows (`LtsSpec.rows`), after Paige &
Tarjan's partition refinement, and expand pairs only for the `Relation`
they return.  The matching game stays as the checker and the oracle
(`is_game_bisim`, `quotient`, `lemma1_check`, `laws.law_bisim_refinement`):
there relations are boolean matrices over state indices, with any leading
batch axes, and tags appear only in `Relation` results, JSON and the order
in which violations are reported.  The game and the lifting engine share
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


# --------------------------------------------------------------------------
# relations and equivalences


@dataclass(frozen=True)
class Relation:
    """A finite set of pairs between two carriers."""

    left: tuple
    right: tuple
    pairs: frozenset

    def __post_init__(self):
        left, right = set(self.left), set(self.right)
        for a, b in self.pairs:
            if a not in left or b not in right:
                raise InputError(f"pair ({a!r}, {b!r}) outside the carriers")

    def __contains__(self, pair):
        return pair in self.pairs

    def __len__(self):
        return len(self.pairs)

    @property
    def is_equivalence(self):
        """Reflexive, and each pair's two ends related to the same set:
        that gives symmetry (b ~ b, so a ~ b) and transitivity."""
        if set(self.left) != set(self.right):
            return False
        image = {x: set() for x in self.left}
        for a, b in self.pairs:
            image[a].add(b)
        ids = {}
        cls = {x: ids.setdefault(frozenset(ys), len(ids)) for x, ys in image.items()}
        return (all(x in ys for x, ys in image.items())
                and all(cls[a] == cls[b] for a, b in self.pairs))

    def sorted_pairs(self):
        return sorted(self.pairs, key=_pair_sort_key)

    def to_json(self):
        return [[tag_to_json(a), tag_to_json(b)] for a, b in self.sorted_pairs()]


def _pair_sort_key(pair):
    return tag_sort_key(pair[0]), tag_sort_key(pair[1])


def _matrix(left, right, pairs):
    """The boolean |left| x |right| matrix of a set of tag pairs."""
    li = {x: i for i, x in enumerate(left)}
    ri = {y: j for j, y in enumerate(right)}
    m = np.zeros((len(left), len(right)), dtype=np.bool_)
    for a, b in pairs:
        if a not in li or b not in ri:
            raise InputError(f"pair ({a!r}, {b!r}) outside the carriers")
        m[li[a], ri[b]] = True
    return m


def _relation(left, right, m):
    """The `Relation` of a boolean |left| x |right| matrix."""
    pairs = frozenset((left[i], right[j]) for i, j in np.argwhere(m).tolist())
    return Relation(left, right, pairs)


def _equivalence_flags(m):
    """Which square relation matrices (any leading batch axes) are
    equivalences: reflexive, symmetric, and with R @ R inside R."""
    cells = (-2, -1)
    reflexive = np.diagonal(m, axis1=-2, axis2=-1).all(axis=-1)
    symmetric = (m == np.swapaxes(m, -2, -1)).all(axis=cells)
    return reflexive & symmetric & ~((m @ m) & ~m).any(axis=cells)


def relation_from_json(obj, left, right):
    pairs = frozenset(tag_pairs_from_json(obj, "relation JSON"))
    return Relation(tuple(left), tuple(right), pairs)


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
        carrier = tuple(carrier)
        rel = Relation(carrier, carrier, frozenset(pairs))
        if not rel.is_equivalence:
            raise NotEquivalence("pair set is not an equivalence relation")
        return cls.from_blocks({tuple(y for y in carrier if (x, y) in rel) for x in carrier})

    def carrier(self):
        return tuple(x for block in self.blocks for x in block)

    def class_of(self, x):
        if x not in self._block_of:
            raise InputError(f"{x!r} not covered by the partition")
        return self._block_of[x]

    def related(self, a, b):
        return self._block_of.get(b) is self.class_of(a)

    def as_pairs(self):
        return frozenset(
            (a, b) for block in self.blocks for a in block for b in block
        )

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

    def out(self, x):
        kind, payload = self.behaviour[x]
        if kind != OUTPUT:
            raise InputError(f"{x!r} is not an output state")
        return payload

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
    return _relation(left, right, rel)


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
    union of the systems (one copy when they are the same system); pairs
    are expanded only for the `Relation`."""
    n1 = len(lts1.states)
    rows, ties = _class_rows(lts1, classes, 0)
    if lts2 is not lts1:
        rows2, ties2 = _class_rows(lts2, classes, n1)
        rows, ties = rows + rows2, {**ties, **ties2}
    sides = {}
    for i, b in enumerate(_refine(rows, ties)):
        if b >= 0:
            sides.setdefault(b, ([], []))[i >= n1].append(i)
    if lts2 is lts1:
        left = right = lts1.states
        pairs = ((left[i], left[j]) for xs, _ in sides.values() for i in xs for j in xs)
    else:
        left, right = lts1.states, lts2.states
        pairs = ((left[i], right[j - n1]) for xs, ys in sides.values() for i in xs for j in ys)
    return Relation(left, right, frozenset(pairs))


def value_bisim(lts1, lts2):
    """Greatest plain value-passing bisimulation between two systems."""
    if set(lts1.values) != set(lts2.values):
        raise ValueSetMismatch("the two systems exchange different value sets")
    return _greatest_bisim(lts1, lts2, [(p,) for p in lts1.values])


def dimmed_bisim(lts1, lts2, approx):
    """Greatest bisimulation matching values only up to `approx`."""
    if set(lts1.values) != set(lts2.values):
        raise ValueSetMismatch("the two systems exchange different value sets")
    if set(approx.carrier()) != set(lts1.values):
        raise NotEquivalence("approx must partition the value set")
    return _greatest_bisim(lts1, lts2, approx.blocks)


def is_game_bisim(lts1, lts2, pairs, approx=None):
    """Is the given pair set a (dimmed) bisimulation?  Returns the first
    violation in tag order as ((x, y), clause) or None."""
    shape, output, failing = _game(lts1, lts2, operator.eq if approx is None else approx.related)
    rel = _matrix(lts1.states, lts2.states, pairs)
    bad = np.argwhere(rel & failing(rel)).tolist()
    if not bad:
        return None
    i, j = min(bad, key=lambda ij: _pair_sort_key((lts1.states[ij[0]], lts2.states[ij[1]])))
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
    if isinstance(relation, Equivalence):
        state_eq = relation
    else:
        if not relation.is_equivalence:
            raise NotABisimulation("state relation must be an equivalence")
        state_eq = Equivalence.from_pairs(lts.states, relation.pairs)
    if is_game_bisim(lts, lts, state_eq.as_pairs(), approx) is not None:
        raise NotABisimulation("state relation is not a bisimulation up to approx")
    class_values = approx.class_tags()
    vq = discrete(sorted(class_values, key=tag_sort_key))
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
            raise NotABisimulation(
                f"structure of class {block!r} depends on the representative")
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
    coalg = lts_to_coalgebra(lts)
    n = len(lts.states)
    masks = np.arange(1 << (n * n))  # bit i of a mask is the pair (i // n, i % n)
    stack = (masks[:, None] >> np.arange(n * n) & 1).astype(np.bool_).reshape(len(masks), n, n)
    is_lifting = ~_separated(coalg, coalg, stack, approx.as_pairs()).any(axis=(1, 2))
    is_game = ~(stack & _game(lts, lts, approx.related)[2](stack)).any(axis=(1, 2))
    is_equivalence = _equivalence_flags(stack)
    for k in np.flatnonzero((is_game != is_lifting) | is_equivalence).tolist():
        rel = _relation(lts.states, lts.states, stack[k])
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
