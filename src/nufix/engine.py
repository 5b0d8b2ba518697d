"""Inner terminal sequences with ep-chains, final coalgebras, coinductive
extensions, and the outer iteration solving B ~ F(|nu B|, |nu B|).

The inner sequence unfolds 1 <- F1 <- F^2 1 <- ... with ep-pairs and stops
when the newest connecting pair is an isomorphism (detected by carrier-size
equality, which for a verified ep-pair is exactly invertibility).  The
outer loop re-instantiates the family at each computed final carrier and
links successive parameter posets by ep-pairs obtained from the reindexing
transformation, declaring a solution when a vertical pair becomes an iso.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (
    DepthMismatch,
    DomainMismatch,
    ElementCapExceeded,
    EpLawViolation,
    InstanceMismatch,
    NotStabilized,
)
from .functors import (
    Backend,
    FunctorInstance,
    Reindex,
    instantiate,
    parse,
    pretty,
)
from .posets import (
    DEFAULT_ELEMENT_CAP,
    EpPair,
    Iso,
    MonoMap,
    bottom_ep,
    compose,
    identity,
    identity_ep,
    unit,
)

DEFAULT_INNER_BUDGET = 8
DEFAULT_OUTER_BUDGET = 6
# candidate maps tested per batched functor action in `_square_hits`; a
# block's arrays hold MORPHISM_BLOCK rows of |F(carrier)| indices, and its
# gather MORPHISM_BLOCK x #coalgebras rows of |carrier| indices
MORPHISM_BLOCK = 1024


@dataclass(frozen=True)
class SeqStatus:
    kind: str  # "stabilized" | "truncated"
    at: int | None = None
    reason: str | None = None

    @property
    def stabilized(self):
        return self.kind == "stabilized"

    def describe(self):
        if self.stabilized:
            return f"stabilized({self.at})"
        return f"truncated({self.reason})"


@dataclass
class TerminalSequence:
    """Stages X_0 = 1, X_1, ... with verified connecting ep-pairs."""

    inst: FunctorInstance
    stages: list = field(default_factory=list)
    eps: list = field(default_factory=list)
    status: SeqStatus = None

    @property
    def carrier_depth(self):
        return self.status.at if self.status.stabilized else len(self.stages) - 1

    def carrier(self):
        return self.stages[self.carrier_depth]

    def ensure_depth(self, depth):
        """Unfold a stabilized sequence past its fixed point (all isos)."""
        if not self.status.stabilized and depth > len(self.stages) - 1:
            raise DepthMismatch(
                f"truncated sequence cannot reach depth {depth}"
            )
        while len(self.stages) - 1 < depth:
            nxt = self.inst.on_object(self.stages[-1])
            ep = self.inst.on_ep(self.eps[-1])
            if ep.as_iso() is None:  # pragma: no cover - functor preserves isos
                raise EpLawViolation("post-stabilization stage is not an iso")
            self.stages.append(nxt)
            self.eps.append(ep)


def terminal_sequence(inst, inner_budget=DEFAULT_INNER_BUDGET):
    """Unfold the final sequence of an instance in a pointed backend
    (pointed-strict or lazy).

    Stops with Stabilized(n) as soon as the n-th connecting ep-pair is an
    isomorphism; otherwise Truncated with the budget or element-cap reason.
    The element cap is the instance's and surfaces as a truncation, never
    an exception.
    """
    one = unit()
    seq = TerminalSequence(inst, [one], [])
    status = SeqStatus("truncated", reason="budget")
    for k in range(inner_budget):
        try:
            nxt = inst.on_object(seq.stages[-1])
        except ElementCapExceeded:
            status = SeqStatus("truncated", reason="element-cap")
            break
        if k == 0:
            ep = bottom_ep(one, nxt)
        else:
            ep = inst.on_ep(seq.eps[-1])
        seq.stages.append(nxt)
        seq.eps.append(ep)
        if ep.as_iso() is not None:
            status = SeqStatus("stabilized", at=k)
            break
    seq.status = status
    return seq


@dataclass
class FinalCoalgebra:
    """Carrier and structure iso of a stabilized sequence (or approximant)."""

    inst: FunctorInstance
    seq: TerminalSequence
    carrier: object
    structure: MonoMap | None
    inverse: MonoMap | None
    exact: bool
    depth: int


def final_coalgebra(seq, require_exact=False):
    """Extract the final coalgebra from a terminal sequence.

    On a stabilized sequence the structure map is the stabilizing
    embedding X_n -> F(X_n); both composition identities are re-verified
    (the structure map of a final coalgebra is an isomorphism).  On a
    truncated sequence the last stage is returned as a flagged
    approximant, or NotStabilized is raised when exactness is demanded.
    """
    if not seq.status.stabilized:
        if require_exact:
            raise NotStabilized(f"sequence is {seq.status.describe()}")
        return FinalCoalgebra(
            seq.inst, seq, seq.stages[-1], None, None, False, len(seq.stages) - 1
        )
    n = seq.status.at
    ep = seq.eps[n]
    structure, inverse = ep.e, ep.p
    if not compose(inverse, structure).is_identity():
        raise EpLawViolation("structure . inverse is not the identity")
    if not compose(structure, inverse).is_identity():
        raise EpLawViolation("inverse . structure is not the identity")
    return FinalCoalgebra(seq.inst, seq, seq.stages[n], structure, inverse, True, n)


def _require_final_for(coalg, final):
    """Morphisms into `final` need its structure map and a shared instance."""
    if not final.exact:
        raise NotStabilized("coinductive extension needs an exact final coalgebra")
    if not coalg.inst.same_instance(final.inst):
        raise InstanceMismatch("coalgebra and final coalgebra use different instances")


def coinductive_extension(coalg, final):
    """The unique coalgebra morphism from `coalg` into the final coalgebra.

    Computed by iterating the stage maps: d_0 is the unique map to 1 and
    d_{k+1} = F(d_k) . h up to the stabilization depth.  The morphism
    square structure . d = F(d) . h is re-verified pointwise.
    """
    _require_final_for(coalg, final)
    inst = final.inst
    h = coalg.as_map()
    s = coalg.carrier
    d = MonoMap(s, final.seq.stages[0], np.zeros(len(s), dtype=np.int32), strict=s.is_pointed)
    for _ in range(final.depth):
        d = compose(h, inst.on_map(d))
    lhs = compose(d, final.structure)
    rhs = compose(h, _image(final, d))
    if lhs != rhs:  # pragma: no cover - construction guarantees the square
        raise EpLawViolation("coinductive extension is not a coalgebra morphism")
    return d


def coalgebra_morphisms(coalg, final):
    """All coalgebra morphisms from `coalg` into the final coalgebra,
    found by exhaustive search; finality predicts exactly one.

    Every monotone candidate d is tested at once by `_square_hits`; only
    the candidates that pass are built as maps and have their square
    re-verified through `on_map` and `compose`.
    """
    _require_final_for(coalg, final)
    s = coalg.carrier
    h = coalg.as_map()
    if h.cod != final.inst.on_object(s):
        raise DomainMismatch("coalgebra structure does not land in F(carrier)")
    tables = _candidate_tables(final, s)
    hits = np.flatnonzero(_square_hits(final, s, tables, h.table[None])[:, 0])
    out = []
    for i in hits:
        cand, fcand = _candidate_with_image(final, s, tables[i])
        if compose(cand, final.structure) != compose(h, fcand):  # pragma: no cover
            raise EpLawViolation("batched morphism test disagrees with on_map")
        out.append(cand)
    return out


def _candidate_tables(final, s):
    """Every monotone table s -> carrier, bottom-strict in a pointed
    backend: the candidate morphisms out of any coalgebra on s."""
    z = final.carrier
    strict = (s.bottom_idx, z.bottom_idx) if final.inst.backend.pointed else None
    return kernels.enum_monotone_tables(s.leq, z.leq, (len(z) ** max(len(s), 1)) + 1, strict)


def _candidate_with_image(final, s, table):
    """A candidate d as a validated map, and F(d)."""
    cand = MonoMap(s, final.carrier, table, strict=final.inst.backend.pointed)
    return cand, _image(final, cand)


def _image(final, d):
    """F(d) for a map d into the final carrier: through `on_map`, or at
    depth 0 the one map into the singleton F(X_0)."""
    inst = final.inst
    if final.depth == 0:
        fs = inst.on_object(d.dom)
        return MonoMap.auto_strict(fs, inst.on_object(d.cod), np.zeros(len(fs), dtype=np.int32))
    return inst.on_map(d)


def _square_hits(final, s, tables, coalgebras):
    """Which candidates are morphisms out of which coalgebras.

    `tables` stacks candidate maps d: s -> carrier, shape (#candidates, |s|);
    `coalgebras` stacks structure tables h: s -> F(s), shape
    (#coalgebras, |s|).  Entry [i, j] of the boolean result says whether
    structure[d_i] == F(d_i)[h_j].  F(d) does not depend on h, so each
    block of MORPHISM_BLOCK candidates takes one batched functor action
    and one gather for all coalgebras.  The tables are trusted.
    """
    hits = np.zeros((len(tables), len(coalgebras)), dtype=np.bool_)
    for lo in range(0, len(tables), MORPHISM_BLOCK):
        block = tables[lo:lo + MORPHISM_BLOCK]
        lhs = final.structure.table[block][:, None, :]
        if final.depth == 0:  # F(X_0) is a singleton
            rhs = 0
        else:
            rhs = final.inst.on_tables(s, final.carrier, block)[:, coalgebras]
        hits[lo:lo + len(block)] = (lhs == rhs).all(axis=2)
    return hits


def _coinductive_extensions(final, s, coalgebras):
    """Every coinductive extension at once, one row per coalgebra table.

    The unfolding of `coinductive_extension` on a stack:
    d_0 = 0 and d_{k+1} = F(d_k)[h], row by row, through the stages of the
    final coalgebra's sequence.  The tables are trusted.
    """
    stages = final.seq.stages
    d = np.zeros((len(coalgebras), len(s)), dtype=np.int32)
    for k in range(final.depth):
        fd = final.inst.on_tables(s, stages[k], d)
        d = np.take_along_axis(fd, coalgebras, axis=1)
    return d


def nu_on_transformation(reindex, seq_f, seq_g):
    """Ep-pair between final carriers induced by a reindexing family.

    Builds the vertical chain v_{k+1} = G(v_k) . phi_{X_k} stagewise,
    re-verifying the family's naturality on every stage object it
    touches, and transports the result to the carriers along the
    stabilization isos.  Both sequences must reach the required depth:
    exact sequences unfold freely, truncated ones raise DepthMismatch
    when too short.
    """
    need = max(seq_f.carrier_depth, seq_g.carrier_depth)
    for seq in (seq_f, seq_g):
        if not seq.status.stabilized and len(seq.stages) - 1 < need:
            raise DepthMismatch(
                "sequences truncated at different depths admit no carrier ep"
            )
    seq_f.ensure_depth(need)
    seq_g.ensure_depth(need)
    one_f, one_g = seq_f.stages[0], seq_g.stages[0]
    zero = np.zeros(1, dtype=np.int32)
    v = EpPair.from_tables(one_f, one_g, zero, zero, (True, True))
    for k in range(need):
        comp = reindex.component(seq_f.stages[k])
        nxt = comp.then(reindex.dst.on_ep(v))
        other = reindex.src.on_ep(v).then(reindex.component(seq_g.stages[k]))
        if nxt.e != other.e or nxt.p != other.p:  # pragma: no cover
            raise EpLawViolation("reindexing family is not natural at a stage")
        v = nxt
    up_f = _iso_chain(seq_f, seq_f.carrier_depth, need)
    up_g = _iso_chain(seq_g, seq_g.carrier_depth, need)
    return up_f.as_ep().then(v).then(up_g.reversed().as_ep())


def _iso_chain(seq, lo, hi):
    """The composite stabilization iso stages[lo] -> stages[hi].  The
    composite of the connecting pairs is an iso exactly when each of them
    is: an embedding is injective, so the sizes never fall and are all
    equal exactly when the first and last are."""
    ep = identity_ep(seq.stages[lo])
    for k in range(lo, hi):
        ep = ep.then(seq.eps[k])
    iso = ep.as_iso()
    if iso is None:
        raise DepthMismatch("non-iso connecting pair past the carrier")
    return iso


def check_limit_colimit(seq):
    """Verify the limit-colimit coincidence on a stabilized sequence.

    The stabilized stage must be simultaneously a colimit of the embedding
    chain and a limit of the projection chain; both cocone/cone
    commutations and the universal property are checked against every
    competing cocone/cone formed from the stages themselves.
    """
    if not seq.status.stabilized:
        raise NotStabilized("limit-colimit check needs a stabilized sequence")
    n = seq.status.at
    stages = seq.stages[: n + 1]
    embs = [seq.eps[k].e for k in range(n)]
    projs = [seq.eps[k].p for k in range(n)]

    def up(i, j):  # composite embedding stages[i] -> stages[j]
        m = identity(stages[i])
        for k in range(i, j):
            m = compose(m, embs[k])
        return m

    def down(i, j):  # composite projection stages[i] -> stages[j], i >= j
        m = identity(stages[i])
        for k in range(i - 1, j - 1, -1):
            m = compose(m, projs[k])
        return m

    cocone = [up(k, n) for k in range(n + 1)]
    for k in range(n):
        if compose(embs[k], cocone[k + 1]) != cocone[k]:
            return False
    cone = [down(n, k) for k in range(n + 1)]
    for k in range(n):
        if compose(cone[k + 1], projs[k]) != cone[k]:
            return False
    for m in range(n + 1):
        # competing cocone into stages[m] and its mediating map out of Z
        g = [up(k, m) if k <= m else down(k, m) for k in range(n + 1)]
        for k in range(n):
            if compose(embs[k], g[k + 1]) != g[k]:
                return False
        u = g[n]
        if any(compose(cocone[k], u) != g[k] for k in range(n + 1)):
            return False
        # competing cone out of stages[m] and its mediating map into Z
        h = [down(m, k) if m >= k else up(m, k) for k in range(n + 1)]
        for k in range(n):
            if compose(h[k + 1], projs[k]) != h[k]:
                return False
        v = h[n]
        if any(compose(v, cone[k]) != h[k] for k in range(n + 1)):
            return False
    return True


def _instances_agree(inst, vep, seq):
    """A vertical iso only counts as a solution when it carries the two
    parameter instantiations onto each other: reindexing along it must be
    an iso at the carrier.  `vep` runs Z_n -> Z_{n+1}, so the family goes
    from row n's instance `inst` to a fresh one at Z_{n+1}.  The caller has
    already checked `vep` itself pointwise through `as_iso`."""
    nxt = instantiate(inst.expr, inst.backend, vep.cod, vep.cod, inst.element_cap)
    return Reindex(inst, nxt, vep).component(seq.carrier()).as_iso() is not None


# --------------------------------------------------------------------------
# the outer iteration


@dataclass
class OuterChain:
    params: list
    rows: list
    vertical_eps: list
    status: SeqStatus


@dataclass
class SolutionReport:
    expr_text: str
    inner_budget: int
    outer_budget: int
    element_cap: int
    chain: OuterChain
    z: object | None
    final: FinalCoalgebra | None
    witness: Iso | None
    exact: bool

    @property
    def solved(self):
        return self.chain.status.stabilized


def solve_hob(expr, constants=None, inner_budget=DEFAULT_INNER_BUDGET,
              outer_budget=DEFAULT_OUTER_BUDGET,
              element_cap=DEFAULT_ELEMENT_CAP):
    """Search for a parameter poset Z with Z ~ |nu F(Z, Z)|, F read in the
    pointed-strict backend.

    Z_0 = 1; each row computes the final carrier of F(Z_n, Z_n), which
    becomes Z_{n+1}; vertical ep-pairs link the parameters, the base one
    being the unique pair out of 1.  Solved(n) when row n is exact and the
    n-th vertical pair is an iso; the witness (final carrier of the
    F(Z,Z)-instance against Z itself) is stored and re-verified.  All
    failures surface as truncated reports carrying the full trace.
    """
    if isinstance(expr, str):
        expr = parse(expr, constants)
    params = [unit()]
    rows = []
    veps = []
    status = SeqStatus("truncated", reason="outer-budget")
    solved_at = None
    for n in range(outer_budget):
        inst = instantiate(expr, Backend.POINTED_STRICT, params[n], params[n], element_cap)
        seq = terminal_sequence(inst, inner_budget)
        rows.append(seq)
        params.append(seq.carrier())
        if n == 0:
            vep = bottom_ep(params[0], params[1])
        else:
            reindex = Reindex(rows[n - 1].inst, inst, veps[-1])
            try:
                vep = nu_on_transformation(reindex, rows[n - 1], rows[n])
            except DepthMismatch:
                status = SeqStatus("truncated", reason="vertical-ep-unavailable")
                break
        veps.append(vep)
        if seq.status.stabilized and vep.as_iso() is not None:
            if _instances_agree(inst, vep, seq):
                solved_at = n
                status = SeqStatus("stabilized", at=n)
                break
    chain = OuterChain(params, rows, veps, status)
    z = final = witness = None
    if solved_at is not None:
        z = params[solved_at]
        final = final_coalgebra(rows[solved_at])
        witness = veps[solved_at].as_iso().reversed()
        if witness.dom != final.carrier or witness.cod != z:
            raise EpLawViolation("witness endpoints do not match")  # pragma: no cover
    exact = all(r.status.stabilized for r in rows)
    return SolutionReport(
        pretty(expr), inner_budget, outer_budget, element_cap,
        chain, z, final, witness, exact,
    )
