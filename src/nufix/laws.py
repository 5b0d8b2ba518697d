"""Seeded property suites behind the check-laws command.

Each suite returns a LawResult with a deterministic transcript line; the
whole run is reproducible from the seed.  The suites pair every
implementation path with an independent oracle: backtracking enumerators
against vectorised brute force, the ep action against hand-composed
pairs, coinductive extensions against exhaustive morphism search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import kernels
from .bisim import lts_instance
from .engine import (
    check_limit_colimit,
    coalgebra_morphisms,
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
    discrete,
    ep_check,
    identity_ep,
    lift,
    unit,
    with_declared_bottom,
)

LAW_ELEMENT_CAP = 6000


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


def _sub_poset(q, members):
    members = sorted(members)
    leq = q.leq[np.ix_(members, members)]
    bottom = members.index(q.bottom_idx) if q.bottom_idx in members else None
    return FinPoset(tuple(q.elements[i] for i in members), leq, bottom), members


def _ep_onto_sub(q, members):
    """Inclusion/retraction ep-pair of a normal subposet of q."""
    sub, members = _sub_poset(q, members)
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
    ep2 = _ep_onto_sub(q, sorted(s2))
    sub2, members2 = _sub_poset(q, sorted(s2))
    pos2 = {m: i for i, m in enumerate(members2)}
    sub1, members1 = _sub_poset(q, sorted(s1))
    retract = _retract_table(q, sorted(s1))
    pos1 = {m: i for i, m in enumerate(members1)}
    e = MonoMap(sub1, sub2, np.array([pos2[m] for m in members1], dtype=np.int32),
                strict=True)
    p = MonoMap(sub2, sub1,
                np.array([pos1[int(retract[m])] for m in members2], dtype=np.int32),
                strict=True)
    return EpPair(e, p), ep2


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


def law_enumeration_counts(max_elems=5):
    shapes = all_posets_upto(max_elems)
    pointed = [p for p in map(with_declared_bottom, shapes) if p is not None]
    ups = 0
    for p in shapes:
        impl = len(kernels.enum_upsets(p.leq, (1 << len(p)) + 1))
        oracle = kernels.count_upsets_bruteforce(p.leq)
        if impl != oracle:
            return LawResult("enumeration-counts", False,
                             f"upset count {impl} != {oracle}", repr(p.elements))
        ups += 1
    for p in pointed:
        keep = [i for i in range(len(p)) if i != p.bottom_idx]
        sub = p.leq[np.ix_(keep, keep)]
        impl = len(kernels.enum_upsets(sub, (1 << len(keep)) + 1))
        oracle = kernels.count_upsets_bruteforce(sub)
        if impl != oracle:
            return LawResult("enumeration-counts", False,
                             f"strict upset count {impl} != {oracle}")
    funs = 0
    for p in shapes:
        for q in shapes:
            limit = max(1, len(q)) ** max(1, len(p)) + 1
            impl = len(kernels.enum_monotone_tables(p.leq, q.leq, limit))
            oracle = kernels.count_monotone_bruteforce(p.leq, q.leq)
            if impl != oracle:
                return LawResult(
                    "enumeration-counts", False,
                    f"monotone count {impl} != {oracle}",
                    repr((p.elements, q.elements)),
                )
            funs += 1
    sfuns = 0
    for p in pointed:
        for q in pointed:
            forced = np.full(len(p), -1, dtype=np.int32)
            forced[p.bottom_idx] = q.bottom_idx
            limit = max(1, len(q)) ** max(1, len(p)) + 1
            impl = len(kernels.enum_monotone_tables(p.leq, q.leq, limit, forced))
            oracle = kernels.count_monotone_bruteforce(
                p.leq, q.leq, (p.bottom_idx, q.bottom_idx)
            )
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


def _all_coalgebras(inst, carrier):
    fc = inst.on_object(carrier)
    forced = np.full(len(carrier), -1, dtype=np.int32)
    forced[carrier.bottom_idx] = fc.bottom_idx
    limit = max(1, len(fc)) ** max(1, len(carrier)) + 1
    tables = kernels.enum_monotone_tables(carrier.leq, fc.leq, limit, forced)
    for row in tables:
        structure = {
            carrier.elements[i]: fc.elements[int(row[i])]
            for i in range(len(carrier))
        }
        yield CoalgebraSpec(inst, carrier, structure)


def law_coinductive_uniqueness(max_states=4):
    shapes = all_posets_upto(max_states - 1)
    carriers = [lift(p) for p in shapes if len(p) <= max_states - 1]
    total = 0
    for inst in _stabilizing_instances():
        seq = terminal_sequence(inst)
        fin = final_coalgebra(seq, require_exact=True)
        for carrier in carriers:
            for coalg in _all_coalgebras(inst, carrier):
                ext = coinductive_extension(coalg, fin)
                morphisms = coalgebra_morphisms(coalg, fin)
                if len(morphisms) != 1 or morphisms[0] != ext:
                    return LawResult(
                        "coinductive-uniqueness", False,
                        f"{len(morphisms)} morphisms for a {len(carrier)}-state "
                        f"coalgebra of {inst!r}",
                    )
                total += 1
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
# runner


def run_all(seed=42, samples=100, count_max=5, ext_states=4):
    results = []
    try:
        results.append(law_functor_ep(seed, samples))
        results.append(law_ep_everywhere(seed))
        results.append(law_rel_lift_monotone(seed + 1, max(10, samples * 3 // 5)))
        results.append(law_enumeration_counts(count_max))
        results.append(law_coinductive_uniqueness(ext_states))
        results.append(law_limit_colimit())
    except NufixError as exc:  # a crash is a failed law, not a crash
        results.append(LawResult("suite-error", False, f"{type(exc).__name__}: {exc}"))
    return results
