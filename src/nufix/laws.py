"""Seeded property suites behind the check-laws command.

Each suite returns a LawResult with a deterministic transcript line; the
whole run is reproducible from the seed.  The suites pair every
implementation path with an independent oracle: the enumerators against
vectorised brute force, the ep action against hand-composed pairs,
coinductive extensions against exhaustive morphism search, the
bisimulation refinement against the matching game's fixpoint.

The brute-force monotone counts are tabulated first, one stacked grid
filter (`kernels.count_monotone_stack`) per codomain and domain size, and
the enumerators are then compared with the table pair by pair.  The
shapes come from `all_posets_upto`, which dedupes by canonical form and
so does not lean on the iso search.

Coinductive uniqueness is checked per (instance, carrier): the coalgebras
and the candidate morphisms are enumerated once, the coalgebra tables are
validated as one stack with the checks `MonoMap` makes, one batched square
test counts each coalgebra's morphisms, and one batched unfolding computes
every extension.  Each distinct morphism d is built once as a map with
F(d) from `on_map`, and the squares it serves are re-verified with one
gather against `compose(d, structure)`; `coinductive_extension` and
`coalgebra_morphisms` remain the one-coalgebra paths that the tests
compare the batch against.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass

import numpy as np

from . import kernels
from .bisim import (
    INPUT,
    OUTPUT,
    Equivalence,
    LtsSpec,
    _game,
    _greatest_relation,
    dimmed_bisim,
    lts_instance,
    value_bisim,
)
from .engine import (
    _candidate_tables,
    _candidate_with_image,
    _coinductive_extensions,
    _square_hits,
    check_limit_colimit,
    coinductive_extension,
    final_coalgebra,
    solve_hob,
    terminal_sequence,
)
from .errors import NufixError
from .functors import (
    Backend,
    CoalgebraSpec,
    instantiate,
    parse,
    rel_lift,
)
from .posets import (
    EpPair,
    FinPoset,
    MonoMap,
    all_posets_upto,
    boolean_lattice,
    compose,
    discrete,
    ep_check,
    identity_ep,
    lift,
    unit,
    with_declared_bottom,
)

LAW_ELEMENT_CAP = 6000
BISIM_MAX_STATES = 12  # the largest random system of law_bisim_refinement


@dataclass
class LawResult:
    name: str
    ok: bool
    detail: str
    counterexample: str | None = None

    def line(self):
        mark = "ok  " if self.ok else "FAIL"
        extra = f"  [{self.counterexample}]" if self.counterexample else ""
        return f"{mark} {self.name}: {self.detail}{extra}"


# --------------------------------------------------------------------------
# random posets and ep-pairs


def random_poset(rng, max_elems):
    k = rng.randint(0, max_elems)
    slots = [(i, j) for i in range(k) for j in range(i + 1, k)]
    leq = np.eye(k, dtype=np.bool_)
    for (i, j) in slots:
        if rng.random() < 0.4:
            leq[i, j] = True
    leq = kernels.transitive_closure(leq)
    return FinPoset(tuple(f"r{i}" for i in range(k)), leq, None)


def random_pointed_poset(rng, max_elems):
    return lift(random_poset(rng, max_elems - 1))


def _retract_table(q, members):
    """Projection table of a normal subposet, or None when not normal."""
    table = np.empty(len(q), dtype=np.int32)
    for y in range(len(q)):
        cands = [s for s in members if q.leq[s, y]]
        if not cands:
            return None
        best = None
        for m in cands:
            if all(q.leq[c, m] for c in cands):
                best = m
                break
        if best is None:
            return None
        table[y] = best
    return table


def _ep_onto_sub(q, members):
    """Inclusion/retraction ep-pair of a normal subposet of q, on the
    sorted member indices, which also tag its elements."""
    bottom = members.index(q.bottom_idx) if q.bottom_idx in members else None
    sub = FinPoset(tuple(members), q.leq[np.ix_(members, members)], bottom)
    retract = _retract_table(q, members)
    pos = {m: i for i, m in enumerate(members)}
    e = MonoMap(sub, q, np.array(members, dtype=np.int32), strict=sub.is_pointed)
    p = MonoMap(q, sub, np.array([pos[int(t)] for t in retract], dtype=np.int32),
                strict=sub.is_pointed)
    return EpPair(e, p)


def random_ep_chain(rng, max_elems):
    """Random composable ep-pairs X1 -> X2 -> Q over a random pointed Q."""
    q = random_pointed_poset(rng, max_elems)
    rest = [i for i in range(len(q)) if i != q.bottom_idx]
    rng.shuffle(rest)
    s2 = {q.bottom_idx}
    for i in rest:
        if rng.random() < 0.7 and _retract_table(q, sorted(s2 | {i})) is not None:
            s2.add(i)
    s1 = {q.bottom_idx}
    for i in sorted(s2 - {q.bottom_idx}):
        if rng.random() < 0.6 and _retract_table(q, sorted(s1 | {i})) is not None:
            s1.add(i)
    a, b = _ep_onto_sub(q, sorted(s1)), _ep_onto_sub(q, sorted(s2))
    # s1 lies inside s2, so b's retraction fixes s1
    return EpPair(compose(a.e, b.p), compose(b.e, a.p)), b


# --------------------------------------------------------------------------
# suite 1: functor laws on ep-pairs

_COMBINATORS = [
    ("Id", "one", 4),
    ("Bool", "one", 4),
    ("W", "bool", 4),
    ("Id + W", "bool", 3),
    ("Id * Bool", "bool", 3),
    ("Lift(Id)", "one", 4),
    ("(Bool -> Id)", "one", 3),
    ("(V -> Id)", "bool", 3),
    ("(V -!> Id)", "bool", 3),
    ("(Bool -!> Id)", "one", 3),
    ("U(Id)", "one", 3),
    ("Us(Id)", "one", 4),
    ("Us(Bool * W * Id + Bool * (V -> Id) + Id)", "one", 3),
]


def law_functor_ep(seed, samples=100):
    rng = random.Random(seed)
    checked = 0
    for text, params, max_elems in _COMBINATORS:
        vw = unit() if params == "one" else boolean_lattice()
        inst = instantiate(parse(text), Backend.POINTED_STRICT, vw, vw,
                           element_cap=LAW_ELEMENT_CAP)
        for _ in range(samples):
            ep1, ep2 = random_ep_chain(rng, max_elems)
            fid = inst.on_ep(identity_ep(ep1.dom))
            if not (fid.e.is_identity() and fid.p.is_identity()):
                return LawResult(
                    "functor-ep-laws", False, f"identity failed for {text}",
                    repr(ep1.dom),
                )
            lhs = inst.on_ep(ep1.then(ep2))
            rhs = inst.on_ep(ep1).then(inst.on_ep(ep2))
            if lhs.e != rhs.e or lhs.p != rhs.p:
                return LawResult(
                    "functor-ep-laws", False, f"composition failed for {text}",
                    repr((ep1, ep2)),
                )
            if not ep_check(rhs.e, rhs.p):
                return LawResult(
                    "functor-ep-laws", False, f"image violates ep laws for {text}",
                    repr(ep1),
                )
            checked += 1
    return LawResult(
        "functor-ep-laws", True,
        f"{len(_COMBINATORS)} combinators x {samples} samples ({checked} checks)",
    )


# --------------------------------------------------------------------------
# suite 2: ep laws on every engine-produced pair


def law_ep_everywhere(seed):
    a = lift(discrete(["a"]))
    c = lift(discrete(["c"]))
    reports = [
        solve_hob("(V -!> Id) + W"),
        solve_hob("Us(Id)"),
        solve_hob("(V -!> Id) + W + A", constants={"A": a},
                  inner_budget=5, outer_budget=3),
        solve_hob("Us(C * W * Id + C * (V -> Id) + Id)", constants={"C": c},
                  outer_budget=3),
    ]
    pairs = 0
    for rep in reports:
        eps = list(rep.chain.vertical_eps)
        for row in rep.chain.rows:
            eps.extend(row.eps)
        for ep in eps:
            if not ep_check(ep.e, ep.p):
                return LawResult("ep-laws-everywhere", False,
                                 f"recorded pair fails laws in {rep.expr_text}")
            if not ep.e.is_injective() or not ep.p.is_surjective():
                return LawResult("ep-laws-everywhere", False,
                                 f"embedding/projection degeneracy in {rep.expr_text}")
            pairs += 1
    return LawResult("ep-laws-everywhere", True,
                     f"{pairs} recorded pairs re-verified across {len(reports)} runs")


# --------------------------------------------------------------------------
# suite 3: relation lifting is monotone and preserves identities


def law_rel_lift_monotone(seed, samples=60):
    rng = random.Random(seed)
    flat3 = lift(discrete(["s", "t"]))
    setups = [
        (lts_instance(["p", "q"]), discrete(["x", "y", "z"])),
        (instantiate(parse("Us(Id)"), Backend.POINTED_STRICT, unit(), unit()), flat3),
        (
            instantiate(parse("Id * W + Id"), Backend.POINTED_STRICT,
                        boolean_lattice(), boolean_lattice()),
            flat3,
        ),
    ]
    checked = 0
    for inst, carrier in setups:
        xs = carrier.elements
        all_pairs = [(x, y) for x in xs for y in xs]
        ident = {(x, x) for x in xs}
        for _ in range(samples):
            big = {p for p in all_pairs if rng.random() < 0.6}
            small = {p for p in big if rng.random() < 0.6}
            lift_small = rel_lift(inst, small, carrier, carrier)
            lift_big = rel_lift(inst, big, carrier, carrier)
            if not lift_small <= lift_big:
                return LawResult("rel-lift-monotone", False,
                                 "lifting lost monotonicity",
                                 repr((sorted(small), sorted(big))))
            checked += 1
        lift_id = rel_lift(inst, ident, carrier, carrier)
        fx = inst.on_object(carrier)
        if not {(u, u) for u in fx.elements} <= lift_id:
            return LawResult("rel-lift-monotone", False,
                             "lifted identity misses the identity")
    return LawResult("rel-lift-monotone", True,
                     f"{len(setups)} instances x {samples} inclusions ({checked} checks)")


# --------------------------------------------------------------------------
# suite 4: enumeration counts against brute-force oracles


def _stacks(leqs):
    """The order matrices grouped by size: (indices, (k, n, n) stack) each."""
    by_size = {}
    for i, leq in enumerate(leqs):
        by_size.setdefault(len(leq), []).append(i)
    return [(idx, np.array([leqs[i] for i in idx], dtype=np.bool_).reshape(len(idx), n, n))
            for n, idx in by_size.items()]


def _bruteforce_counts(doms, cods, strict=False):
    """counts[i, j]: the brute-force number of monotone tables doms[i] ->
    cods[j] (bottom to bottom when `strict`), one stacked count per
    codomain and domain size."""
    counts = np.zeros((len(doms), len(cods)), dtype=np.int64)
    stacks = [(idx, stack, [doms[i].bottom_idx for i in idx])
              for idx, stack in _stacks([p.leq for p in doms])]
    for j, q in enumerate(cods):
        for idx, stack, bottoms in stacks:
            pair = (bottoms, q.bottom_idx) if strict else None
            counts[idx, j] = kernels.count_monotone_stack(stack, q.leq, pair)
    return counts


def _bruteforce_upsets(leqs):
    """The brute-force number of upsets of each order matrix, one stacked
    count per size."""
    counts = np.zeros(len(leqs), dtype=np.int64)
    for idx, stack in _stacks(leqs):
        counts[idx] = kernels.count_upsets_stack(stack)
    return counts.tolist()


def law_enumeration_counts(max_elems=5):
    shapes = all_posets_upto(max_elems)
    pointed = [p for p in map(with_declared_bottom, shapes) if p is not None]
    ups = 0
    for p, oracle in zip(shapes, _bruteforce_upsets([p.leq for p in shapes])):
        impl = len(kernels.enum_upsets(p.leq, (1 << len(p)) + 1))
        if impl != oracle:
            return LawResult("enumeration-counts", False,
                             f"upset count {impl} != {oracle}", repr(p.elements))
        ups += 1
    subs = [np.delete(np.delete(p.leq, p.bottom_idx, 0), p.bottom_idx, 1) for p in pointed]
    for sub, oracle in zip(subs, _bruteforce_upsets(subs)):
        impl = len(kernels.enum_upsets(sub, (1 << len(sub)) + 1))
        if impl != oracle:
            return LawResult("enumeration-counts", False,
                             f"strict upset count {impl} != {oracle}")
    plain = _bruteforce_counts(shapes, shapes)
    funs = 0
    for i, p in enumerate(shapes):
        for j, q in enumerate(shapes):
            limit = max(1, len(q)) ** max(1, len(p)) + 1
            impl = len(kernels.enum_monotone_tables(p.leq, q.leq, limit))
            oracle = int(plain[i, j])
            if impl != oracle:
                return LawResult(
                    "enumeration-counts", False,
                    f"monotone count {impl} != {oracle}",
                    repr((p.elements, q.elements)),
                )
            funs += 1
    strict = _bruteforce_counts(pointed, pointed, strict=True)
    sfuns = 0
    for i, p in enumerate(pointed):
        for j, q in enumerate(pointed):
            limit = max(1, len(q)) ** max(1, len(p)) + 1
            impl = len(kernels.enum_monotone_tables(
                p.leq, q.leq, limit, (p.bottom_idx, q.bottom_idx)))
            oracle = int(strict[i, j])
            if impl != oracle:
                return LawResult("enumeration-counts", False,
                                 f"strict monotone count {impl} != {oracle}")
            sfuns += 1
    return LawResult(
        "enumeration-counts", True,
        f"posets<= {max_elems}: {ups} upset counts, {funs} monotone counts, "
        f"{sfuns} strict counts all match brute force",
    )


# --------------------------------------------------------------------------
# suite 5: coinductive extensions exist uniquely


def _stabilizing_instances():
    one = unit()
    b = boolean_lattice()
    return [
        instantiate(parse("Us(Id)"), Backend.POINTED_STRICT, one, one),
        instantiate(parse("(V -!> Id) + W"), Backend.POINTED_STRICT, one, one),
        instantiate(parse("Lift(W)"), Backend.POINTED_STRICT, b, b),
        instantiate(parse("Bool + W"), Backend.POINTED_STRICT, b, b),
    ]


def _coalgebra_tables(inst, carrier):
    """Every strict structure table carrier -> F(carrier)."""
    fc = inst.on_object(carrier)
    limit = max(1, len(fc)) ** max(1, len(carrier)) + 1
    return kernels.enum_monotone_tables(
        carrier.leq, fc.leq, limit, (carrier.bottom_idx, fc.bottom_idx))


def _carrier_uniqueness(inst, fin, carrier, tables):
    """Check the coalgebras with structure `tables` on `carrier` at once;
    the failure detail, or None.

    The tables are validated as one stack with the checks that `MonoMap`
    makes on each structure map carrier -> F(carrier): width, range,
    monotonicity (`kernels.monotone_rows`) and, in a pointed backend,
    that both ends are pointed and every table sends bottom to bottom.
    One batched square test then finds each coalgebra's morphisms among
    all candidates; exactly one must pass, and it must equal the row of the
    batched unfolding.  Each distinct morphism d is built once as a
    validated map with F(d) from `on_map`, structure . d through `compose`,
    and the squares of all coalgebras that d serves are re-verified with
    one gather: the stack of composites F(d) . h must be monotone and equal
    structure . d.
    """
    fc = inst.on_object(carrier)
    size = f"{len(carrier)}-state"
    strict = inst.backend.pointed
    if tables.shape[1:] != (len(carrier),):
        return f"coalgebra tables of the wrong width on a {size} carrier of {inst!r}"
    if tables.size and (tables.min() < 0 or tables.max() >= len(fc)):
        return f"coalgebra value outside F(carrier) on a {size} carrier of {inst!r}"
    if not kernels.monotone_rows(carrier.leq, fc.leq, tables).all():
        return f"non-monotone coalgebra on a {size} carrier of {inst!r}"
    if strict and not (carrier.is_pointed and fc.is_pointed
                       and (tables[:, carrier.bottom_idx] == fc.bottom_idx).all()):
        return f"non-strict coalgebra on a {size} carrier of {inst!r}"
    candidates = _candidate_tables(fin, carrier)
    hits = _square_hits(fin, carrier, candidates, tables)
    exts = _coinductive_extensions(fin, carrier, tables)
    found = hits.sum(axis=0)
    first = hits.argmax(axis=0)
    bad = np.flatnonzero((found != 1) | (candidates[first] != exts).any(axis=1))
    if bad.size:
        return f"{found[bad[0]]} morphisms for a {size} coalgebra of {inst!r}"
    for i in np.unique(first):
        cand, fcand = _candidate_with_image(fin, carrier, candidates[i])
        lhs = compose(cand, fin.structure)
        composites = fcand.table[tables[first == i]]
        if not (kernels.monotone_rows(carrier.leq, fcand.cod.leq, composites).all()
                and (composites == lhs.table).all()):
            return (f"batched square disagrees with on_map for a "
                    f"{size} coalgebra of {inst!r}")
    return None


def law_coinductive_uniqueness(max_states=4):
    shapes = all_posets_upto(max_states - 1)
    carriers = [lift(p) for p in shapes if len(p) <= max_states - 1]
    total = 0
    for inst in _stabilizing_instances():
        seq = terminal_sequence(inst)
        fin = final_coalgebra(seq, require_exact=True)
        for carrier in carriers:
            tables = _coalgebra_tables(inst, carrier)
            failure = _carrier_uniqueness(inst, fin, carrier, tables)
            if failure is not None:
                return LawResult("coinductive-uniqueness", False, failure)
            total += len(tables)
        # the final coalgebra extends to itself by the identity
        self_coalg = CoalgebraSpec(
            inst, fin.carrier,
            {e: fin.structure(e) for e in fin.carrier.elements},
        )
        ext = coinductive_extension(self_coalg, fin)
        if not ext.is_identity():
            return LawResult("coinductive-uniqueness", False,
                             f"self-extension of {inst!r} is not the identity")
        total += 1
    return LawResult("coinductive-uniqueness", True,
                     f"{total} coalgebras (<= {max_states} states): unique morphisms")


# --------------------------------------------------------------------------
# suite 6: limit-colimit coincidence on stabilized runs


def law_limit_colimit():
    a = lift(discrete(["a"]))
    seqs = []
    for inst in _stabilizing_instances():
        seqs.append(terminal_sequence(inst))
    seqs.append(
        terminal_sequence(
            instantiate(parse("Id"), Backend.POINTED_STRICT, unit(), unit())
        )
    )
    seqs.append(
        terminal_sequence(
            instantiate(parse("(V -!> Id) + W + A", {"A": a}),
                        Backend.POINTED_STRICT, unit(), unit())
        )
    )
    checked = 0
    for seq in seqs:
        if not seq.status.stabilized:
            return LawResult("limit-colimit", False,
                             "expected a stabilizing sequence")
        if not check_limit_colimit(seq):
            return LawResult("limit-colimit", False,
                             f"coincidence fails for {seq.inst!r}")
        checked += 1
    return LawResult("limit-colimit", True,
                     f"{checked} stabilized sequences pass the coincidence check")


# --------------------------------------------------------------------------
# suite 7: bisimulation refinement against the matching game


def random_lts(rng, states, values):
    """A random value-passing system over `states`, drawn from a
    `random.Random`: each state inputs (to a random state per value) with
    probability 0.6, and otherwise outputs a random value."""
    return LtsSpec(values, states, {
        x: (INPUT, {p: rng.choice(states) for p in values}) if rng.random() < 0.6
        else (OUTPUT, rng.choice(values))
        for x in states
    })


def law_bisim_refinement(seed, samples=100):
    """`value_bisim` and `dimmed_bisim` against the greatest fixpoint of the
    matching game on random system pairs, the second listing the values in
    another order or being the first system, under random value classes."""
    rng = random.Random(seed)

    def system(prefix, values):
        states = [f"{prefix}{i}" for i in range(rng.randint(0, BISIM_MAX_STATES))]
        return random_lts(rng, states, values)

    for _ in range(samples):
        values = ["p", "q", "r", "s"][:rng.randint(1, 4)]
        lts1 = system("x", values)
        lts2 = lts1 if rng.random() < 0.25 else system("y", rng.sample(values, len(values)))
        classes = {}
        for p in values:
            classes.setdefault(rng.randrange(len(values)), []).append(p)
        approx = Equivalence.from_blocks(list(classes.values()))
        plain = (value_bisim(lts1, lts2), operator.eq, "plain")
        dimmed = (dimmed_bisim(lts1, lts2, approx), approx.related,
                  f"dimmed by {approx.to_json()}")
        for refined, related, kind in (plain, dimmed):
            game = _greatest_relation(lts1.states, lts2.states, _game(lts1, lts2, related)[2])
            if not np.array_equal(refined.matrix, game.matrix):
                return LawResult("bisim-refinement", False,
                                 f"{kind} refinement differs from the game",
                                 repr((lts1.to_json(), lts2.to_json())))
    return LawResult("bisim-refinement", True,
                     f"{samples} system pairs (<= {BISIM_MAX_STATES} states), plain and "
                     f"dimmed: refinement equals the game's fixpoint")


# --------------------------------------------------------------------------
# runner


def run_all(seed=42, samples=100):
    results = []
    try:
        results.append(law_functor_ep(seed, samples))
        results.append(law_ep_everywhere(seed))
        results.append(law_rel_lift_monotone(seed + 1, max(10, samples * 3 // 5)))
        results.append(law_enumeration_counts())
        results.append(law_coinductive_uniqueness())
        results.append(law_limit_colimit())
        results.append(law_bisim_refinement(seed + 2, samples))
    except NufixError as exc:  # a crash is a failed law, not a crash
        results.append(LawResult("suite-error", False, f"{type(exc).__name__}: {exc}"))
    return results
