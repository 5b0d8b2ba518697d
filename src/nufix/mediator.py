"""The inclusion of pointed strict structures into the plain world, its
left adjoint (freely adding a bottom), and the stagewise comparison of the
two final sequences for lazy families.

A lazy family is an upset-free expression with no strict nodes under an
outermost Lift, read with separated sums: the same formula is an
endofunctor both on pointed posets with strict maps (`Backend.LAZY`, which
admits only such expressions) and on plain posets (`Backend.PLAIN`).
`solve_lifted` runs the ep-chain sequence on the lazy side and the plain
projection-only sequence on the other, then checks stage by stage that the
inclusion carries one onto the other; that is the finite observable
content of "final invariants lift along the inclusion".
The two instances build the same records in the same index layout, so
`compare_stages`, which the report loader shares, takes the identity as
each stage's witness when the orders are equal and says `disagree`
otherwise; no iso search runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .engine import DEFAULT_INNER_BUDGET, SeqStatus, terminal_sequence
from .errors import DomainMismatch, ElementCapExceeded, SizeCapExceeded
from .functors import Backend, FunctorInstance, parse, pretty
from .posets import (
    DEFAULT_ELEMENT_CAP,
    Iso,
    MonoMap,
    _injection,
    _iso_from_perm,
    all_posets_upto,
    lift,
    unit,
    with_declared_bottom,
)

ADJUNCTION_CAP = 64  # the largest P and Q that the exhaustive adjunction_check takes


def include(p):
    """Forget pointedness: the same order with no declared bottom."""
    p.require_pointed("include")
    return p.with_bottom(None)


def lift_left_adjoint(p):
    """Freely add a bottom; left adjoint to `include`."""
    return lift(p)


def transpose(f, p, q):
    """Strict map lift(P) -> Q to its adjunct P -> include(Q)."""
    lp = lift(p)
    if f.dom != lp:
        raise DomainMismatch("transpose expects a map out of lift(P)")
    return MonoMap(p, include(q), f.table[_injection(lp)])


def untranspose(g, p, q):
    """Monotone map P -> include(Q) to its strict adjunct lift(P) -> Q."""
    lp = lift(p)
    return MonoMap(lp, q, _untranspose_rows(lp, g.table[None], q.bottom_idx)[0], strict=True)


def adjunction_check(p, q):
    """Verify the hom-set bijection strict(lift(P), Q) ~ mono(P, include(Q))
    by exhaustive enumeration of both sides and the explicit transposes.

    Each side's tables are checked as one stack, with the checks that
    `MonoMap` makes on each of them: width and range, strictness, and
    monotonicity of every table, its transpose and its untranspose.  Both
    round trips must give the stack back, the transposes must be distinct,
    and they must be exactly the plain side's tables.  Any failure gives
    False.  `include(Q)` has Q's order, so the plain side uses `q.leq`."""
    q.require_pointed("adjunction_check")
    if len(p) > ADJUNCTION_CAP or len(q) > ADJUNCTION_CAP:
        raise SizeCapExceeded("adjunction_check is exhaustive; inputs are capped")
    lp = lift(p)
    n, m, b = len(p), len(q), q.bottom_idx
    strict = kernels.enum_monotone_tables(lp.leq, q.leq, m ** (n + 1) + 1, (lp.bottom_idx, b))
    plain = kernels.enum_monotone_tables(p.leq, q.leq, m ** max(1, n) + 1)
    if (strict.shape != (len(strict), n + 1) or plain.shape != (len(strict), n)
            or not (_in_range(strict, m) and _in_range(plain, m))
            or not (strict[:, lp.bottom_idx] == b).all()):
        return False
    transposes = strict[:, _injection(lp)]
    untransposes = _untranspose_rows(lp, plain, b)
    if not (kernels.monotone_rows(lp.leq, q.leq, strict).all()
            and kernels.monotone_rows(p.leq, q.leq, transposes).all()
            and kernels.monotone_rows(p.leq, q.leq, plain).all()
            and kernels.monotone_rows(lp.leq, q.leq, untransposes).all()):
        return False
    if not (np.array_equal(_untranspose_rows(lp, transposes, b), strict)
            and np.array_equal(untransposes[:, _injection(lp)], plain)):
        return False
    keys = {row.tobytes() for row in transposes}
    return len(keys) == len(strict) and keys == {row.tobytes() for row in plain}


def _in_range(tables, m):
    return tables.size == 0 or (tables.min() >= 0 and tables.max() < m)


def _untranspose_rows(lp, tables, bottom):
    """Each table P -> Q sent to its strict adjunct out of lift(P) = `lp`."""
    out = np.empty((len(tables), len(lp)), dtype=np.int32)
    out[:, lp.bottom_idx] = bottom
    out[:, _injection(lp)] = tables
    return out


# --------------------------------------------------------------------------
# the lazy and plain sequence comparison


@dataclass
class PlainSequence:
    """A final sequence in the plain backend: connecting projections only,
    built from the unique map F(1) -> 1 by the covariant map action."""

    inst: FunctorInstance
    stages: list
    projs: list
    status: SeqStatus


def plain_terminal_sequence(inst, inner_budget=DEFAULT_INNER_BUDGET):
    stages = [include(unit())]
    projs = []
    status = SeqStatus("truncated", reason="budget")
    for k in range(inner_budget):
        try:
            nxt = inst.on_object(stages[-1])
        except ElementCapExceeded:
            status = SeqStatus("truncated", reason="element-cap")
            break
        if k == 0:
            proj = MonoMap(nxt, stages[0], np.zeros(len(nxt), dtype=np.int32))
        else:
            proj = inst.on_map(projs[-1])
        stages.append(nxt)
        projs.append(proj)
        if _is_plain_iso(proj):
            status = SeqStatus("stabilized", at=k)
            break
    return PlainSequence(inst, stages, projs, status)


def _is_plain_iso(m):
    if len(m.dom) != len(m.cod) or not m.is_injective():
        return False
    inv = np.empty(len(m.dom), dtype=np.int32)
    inv[m.table] = np.arange(len(m.dom), dtype=np.int32)
    return kernels.monotone_ok(m.cod.leq, m.dom.leq, inv)


def compare_stages(pointed_stages, pointed_eps, plain_stages, plain_projs):
    """One `StageComparison` per stage that both rows reach: the identity
    `include(h_k) -> g_k` when the two orders are equal, else no iso."""
    comparisons = []
    for k in range(min(len(pointed_stages), len(plain_stages))):
        h, g = include(pointed_stages[k]), plain_stages[k]
        iso = None
        if np.array_equal(h.leq, g.leq):
            iso = _iso_from_perm(h, g, np.arange(len(g), dtype=np.int32))
        agree = k == 0 or np.array_equal(pointed_eps[k - 1].p.table, plain_projs[k - 1].table)
        comparisons.append(StageComparison(k, len(h), len(g), iso, agree))
    return comparisons


@dataclass
class StageComparison:
    """Stage `index` of both rows: `iso` is the identity or None, so the
    index-wise `projections_agree` is the commutation p_plain . iso_k =
    iso_(k-1) . p_lazy; any other witness would have to compose through."""

    index: int
    size_pointed: int
    size_plain: int
    iso: Iso | None
    projections_agree: bool

    @property
    def ok(self):
        return self.iso is not None and self.projections_agree


@dataclass
class MediatorReport:
    expr_pointed: str
    expr_plain: str
    pointed_seq: object
    plain_seq: PlainSequence
    stages: list  # StageComparison per computed stage
    adjunction_sweep: list  # (|P|, |Q|, bool)
    status: str  # "agree" | "disagree"

    @property
    def ok(self):
        return self.status == "agree"


def solve_lifted(expr, v, w, constants=None, inner_budget=DEFAULT_INNER_BUDGET,
                 element_cap=DEFAULT_ELEMENT_CAP, adjunction_cap=3):
    """Run the lazy-shaped family on both sides of the inclusion and
    compare the final sequences stagewise.

    The lazy backend admits the expression, with pointed parameters, or
    raises; its sums are separated on both sides.  Each stage that both
    sequences reach is decided by `compare_stages`.
    """
    if isinstance(expr, str):
        expr = parse(expr, constants)
    inst_h = FunctorInstance(expr, Backend.LAZY, v, w, element_cap)
    seq_h = terminal_sequence(inst_h, inner_budget)
    inst_g = FunctorInstance(expr, Backend.PLAIN, include(v), include(w), element_cap)
    seq_g = plain_terminal_sequence(inst_g, inner_budget)

    comparisons = compare_stages(seq_h.stages, seq_h.eps, seq_g.stages, seq_g.projs)
    sweep = []
    shapes = all_posets_upto(adjunction_cap)
    pointed = [q for q in map(with_declared_bottom, shapes) if q is not None]
    for p in shapes:
        for q in pointed:
            sweep.append((len(p), len(q), adjunction_check(p, q)))
    ok = all(c.ok for c in comparisons) and all(row[2] for row in sweep)
    text = pretty(expr)
    return MediatorReport(
        text, text, seq_h, seq_g, comparisons, sweep,
        "agree" if ok else "disagree",
    )
