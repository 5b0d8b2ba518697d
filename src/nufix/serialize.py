"""Report serialization: compact JSON with a shared poset pool, DOT bundles,
and re-validating loaders.

`dumps` writes sorted keys with no whitespace (`","` and `":"` separators)
and escapes non-ASCII characters, so identical reports are identical bytes.

Solution, terminal and mediator reports are format 3: a top-level
`"format": 3` beside `"kind"`, and a `"posets"` pool that every other part
of the report refers to by index.  A pool entry records how its poset was
built, and an entry's operands come before it.  A leaf (a constant, `unit`,
a discrete carrier) is

    {"elements": [element tags], "covers": [[i, j], ...], "bottom": b}

with the tags as nested JSON lists (`posets.tag_to_json`), the Hasse covers
as element-index pairs (i covered by j, in row-major order) and the
bottom's element index, or null for an unpointed poset.  A constructed
poset is

    {"kind": k, "children": [pool indices], "elements": [forms], "bottom": b}

with k one of `product`, `sum`, `coalesced`, `lift`, `tables` and `upsets`,
and each element in its short form (`posets.element_forms`): its head and
its parts' indices in the operands, never the operands' tags.  A pair is
`[i, j]`, a sum or lift element `["inl", i]`, `["inr", j]`, `["lup", i]`,
`["cbot"]` or `["lbot"]`, a table its row of codomain indices and an upset
its member indices.  Tables and upsets also record `"strict"`: whether every
table keeps the bottom, or no upset holds it.  Each stage is so written once
however deeply its tags nest the stage below, and equal constructions share
one entry.  Constants files (`--constants`, `posets.poset_from_json`) keep
their own format, whose `"leq"` lists order pairs of element tags.

Loading a report reconstructs every poset, ep-pair, and witness iso through
the same validating constructors used by the engine, so a tampered or
corrupted report fails loudly rather than round-tripping: a leaf goes
through the builder behind `posets.validate_poset`, a constructed entry
through `posets.poset_from_forms` (its constructor's layout or the table and
inclusion order kernels, with every row checked and nothing enumerated), and
a missing field, a field of the wrong JSON type, an index out of range, an
operand that is not an earlier entry or a report in another format raises
InputError.  So does a solution report of a backend other than
pointed-strict, a strict map that lacks or moves a bottom, and a claim
that the verified objects contradict: a row status against the row's maps,
a solution's or terminal report's budgets against its rows' lengths,
statuses and stage sizes, a solution's carriers, its `exact` and outer
status against its rows, vertical ep-pairs, `z`, witness and final
coalgebra, and a mediator report's stage comparisons and status against the
ones `mediator.compare_stages` derives from its two rows.  Tags stay a view
built on the first read: writing, loading and drawing a report build none
for a constructed poset, and `dot_bundle` labels elements by their forms
(`posets.element_labels`).
"""

from __future__ import annotations

import json

from .engine import SeqStatus
from .errors import InputError, NotPointed
from .functors import Backend
from .mediator import _is_plain_iso, compare_stages
from .posets import (
    EpPair,
    Iso,
    MonoMap,
    _indices,
    _poset_to_index_json,
    _strict_space,
    element_forms,
    poset_from_forms,
    poset_from_json,
    poset_to_dot,
)

FORMAT = 3
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", bool: "a boolean"}


def _get(obj, key, kind=None):
    """The required field `key` of the JSON object `obj`, of Python type
    `kind` when one is given; anything else raises InputError."""
    if not isinstance(obj, dict):
        raise InputError(f"expected an object with field {key!r}, "
                         f"found {type(obj).__name__}")
    if key not in obj:
        raise InputError(f"report field {key!r} is missing")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise InputError(f"report field {key!r} must be {_JSON_TYPES[kind]}")
    return value


def _checked(obj, kind):
    """Check that `obj` is a report of `kind` in this module's format."""
    if _get(obj, "kind") != kind:
        raise InputError(f"not a {kind.replace('-', ' ')}")
    fmt = obj.get("format", 1)  # format-1 reports have no "format" field
    if type(fmt) is not int or fmt != FORMAT:
        raise InputError(f"report format {fmt!r} is not readable: this version "
                         f"reads format {FORMAT}; rerun the command to rewrite it")


class _Pool:
    """The posets of one report, each written once and referred to by
    index: a leaf with its tags, covers and bottom, a constructed poset as
    its kind, its operands' indices (written first), its `element_forms`
    and bottom, and for tables and upsets whether every element keeps the
    bottom.  An entry is keyed by its construction, so no poset is compared
    and no tag is built."""

    def __init__(self):
        self.entries = []
        self._keys = {}
        self._refs = {}  # id(poset) -> (index, poset), which keeps the id taken

    def ref(self, p):
        hit = self._refs.get(id(p))
        if hit is None:
            stack = [p]
            while stack:  # operands before the posets built from them
                q = stack[-1]
                todo = [c for c in q.children if id(c) not in self._refs]
                if todo:
                    stack += reversed(todo)  # the first operand first
                    continue
                stack.pop()
                if id(q) not in self._refs:
                    self._refs[id(q)] = (self._add(q), q)
            hit = self._refs[id(p)]
        return hit[0]

    def _add(self, p):
        rec = p._record
        if rec.kind is None:
            key = (None, rec.tags, p.leq.tobytes(), p.bottom_idx)
        else:
            refs = [self._refs[id(c)][0] for c in p.children]
            rows = None if rec.rows is None else rec.rows.tobytes()
            key = (rec.kind, tuple(refs), rows, p.bottom_idx)
        idx = self._keys.get(key)
        if idx is None:
            idx = self._keys[key] = len(self.entries)
            if rec.kind is None:
                entry = _poset_to_index_json(p)
            else:
                entry = {"kind": rec.kind, "children": refs,
                         "elements": element_forms(p), "bottom": p.bottom_idx}
                if rec.rows is not None:
                    entry["strict"] = _strict_space(p)
            self.entries.append(entry)
        return idx


def _pool_from_json(obj):
    """The pool's posets, in order: a leaf rebuilt from its covers, a
    constructed poset by `poset_from_forms` over earlier entries."""
    posets = []
    for entry in _get(obj, "posets", list):
        if isinstance(entry, dict) and "kind" in entry:
            kind, children = entry["kind"], []
            for ref in _get(entry, "children", list):
                if isinstance(ref, bool) or not isinstance(ref, int) or not 0 <= ref < len(posets):
                    raise InputError(f"operand reference {ref!r} does not name one of the "
                                     f"{len(posets)} pool entries before it")
                children.append(posets[ref])
            strict = _get(entry, "strict", bool) if kind in ("tables", "upsets") else False
            posets.append(poset_from_forms(kind, children, _get(entry, "elements", list),
                                           _get(entry, "bottom"), strict))
        else:
            _get(entry, "covers", list)  # the index form, not a constants file's leq
            _get(entry, "bottom")
            posets.append(poset_from_json(entry))
    return posets


def _status_json(status):
    return {"state": status.kind, "at": status.at, "reason": status.reason}


def _status_from_json(obj):
    """A status is stabilized at an int or truncated for a reason."""
    state, at, reason = _get(obj, "state"), _get(obj, "at"), _get(obj, "reason")
    if state == "stabilized":
        ok = type(at) is int and reason is None
    else:
        ok = state == "truncated" and at is None and isinstance(reason, str)
    if not ok:
        raise InputError(f"{state!r} at {at!r} for {reason!r} is not a sequence status")
    return SeqStatus(state, at=at, reason=reason)


def _check_row(status, isos):
    """A row stabilizes at its first connecting map that is an iso (`isos`
    flags them), and every later one is an iso too: `solve_hob` unfolds
    stabilized rows past their fixed point.  A truncated row has no iso."""
    if status.stabilized:
        k = status.at
        ok = 0 <= k < len(isos) and not any(isos[:k]) and all(isos[k:])
    else:
        ok = not any(isos)
    if not ok:
        raise InputError(f"status {status.describe()} disagrees with the row's maps")


def _pooled(posets, ref):
    """The pool entry at index `ref`: an int (not a bool) in range."""
    if isinstance(ref, bool) or not isinstance(ref, int) or not 0 <= ref < len(posets):
        raise InputError(f"poset reference {ref!r} is not an index into a pool "
                         f"of {len(posets)}")
    return posets[ref]


def _map_json(m, pool):
    return {
        "dom": pool.ref(m.dom),
        "cod": pool.ref(m.cod),
        "table": m.table.tolist(),
        "strict": m.strict,
    }


def _map_fields(obj, posets):
    """The domain, codomain, table and strict flag of a map's JSON object,
    the table's indices checked against the codomain and a strict map's
    ends for a bottom."""
    dom = _pooled(posets, _get(obj, "dom"))
    cod = _pooled(posets, _get(obj, "cod"))
    table = _indices(_get(obj, "table", list), len(cod), "a map table")
    strict = _get(obj, "strict", bool)
    if strict and not (dom.is_pointed and cod.is_pointed):
        raise InputError("a strict map needs a pointed domain and codomain")
    return dom, cod, table, strict


def _map_from_json(obj, posets):
    fields = _map_fields(obj, posets)
    try:
        return MonoMap(*fields)
    except NotPointed as exc:  # the ends are pointed, so the table drops the bottom
        raise InputError(f"a strict map does not keep the bottom ({exc})") from exc


def _ep_json(ep, pool):
    return {"e": _map_json(ep.e, pool), "p": _map_json(ep.p, pool)}


def _ep_from_json(obj, posets):
    """The ep-pair of a JSON object, verified with its recorded strict
    flags by `EpPair.from_tables` when the maps' endpoints agree."""
    x, y, e, se = _map_fields(_get(obj, "e"), posets)
    y2, x2, p, sp = _map_fields(_get(obj, "p"), posets)
    try:
        if x2 != x or y2 != y:
            return EpPair(MonoMap(x, y, e, se), MonoMap(y2, x2, p, sp))
        return EpPair.from_tables(x, y, e, p, (se, sp))
    except NotPointed as exc:  # the ends are pointed, so a table drops the bottom
        raise InputError(f"a strict map does not keep the bottom ({exc})") from exc


def _iso_json(iso, pool):
    return {
        "forward": _map_json(iso.forward, pool),
        "backward": _map_json(iso.backward, pool),
    }


def _iso_from_json(obj, posets):
    return Iso(
        _map_from_json(_get(obj, "forward"), posets),
        _map_from_json(_get(obj, "backward"), posets),
    )


def _seq_json(seq, pool, links="eps"):
    """A sequence row: its status, stages, their sizes and its connecting
    maps, ep-pairs (`eps`) or plain projections (`projs`)."""
    write = _ep_json if links == "eps" else _map_json
    return {
        "status": _status_json(seq.status),
        "stages": [pool.ref(s) for s in seq.stages],
        "sizes": [len(s) for s in seq.stages],
        links: [write(m, pool) for m in getattr(seq, links)],
    }


def _seq_from_json(row, posets, links="eps"):
    """Stages, connecting maps and status of a sequence row, checked against
    each other: ep-pairs (`eps`) run up the stages, plain projections
    (`projs`) run down them."""
    stages = [_pooled(posets, i) for i in _get(row, "stages", list)]
    if [len(s) for s in stages] != _get(row, "sizes"):
        raise InputError("stage sizes disagree with the poset pool")
    links_json = _get(row, links, list)
    if len(links_json) != len(stages) - 1:
        raise InputError(f"a row of {len(stages)} stages needs {len(stages) - 1} {links}")
    status = _status_from_json(_get(row, "status"))
    if links == "eps":
        maps = [_ep_from_json(e, posets) for e in links_json]
        ends = [(ep.dom, ep.cod) for ep in maps]
        _check_row(status, [ep.as_iso() is not None for ep in maps])
    else:
        maps = [_map_from_json(m, posets) for m in links_json]
        ends = [(m.cod, m.dom) for m in maps]
        _check_row(status, [_is_plain_iso(m) for m in maps])
    for k, (lower, upper) in enumerate(ends):
        if lower != stages[k] or upper != stages[k + 1]:
            raise InputError(f"{links} endpoints disagree with the stages")
    return stages, maps, status


def dumps(obj):
    return json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# solution reports


def solution_report_json(rep):
    pool = _Pool()
    chain = rep.chain
    obj = {
        "kind": "solution-report",
        "format": FORMAT,
        "expr": rep.expr_text,
        "backend": Backend.POINTED_STRICT.value,
        "budgets": {
            "inner": rep.inner_budget,
            "outer": rep.outer_budget,
            "element_cap": rep.element_cap,
        },
        "status": _status_json(chain.status),
        "exact": rep.exact,
        "params": [pool.ref(z) for z in chain.params],
        "rows": [_seq_json(seq, pool) for seq in chain.rows],
        "vertical_eps": [_ep_json(ep, pool) for ep in chain.vertical_eps],
        "z": pool.ref(rep.z) if rep.z is not None else None,
        "witness": _iso_json(rep.witness, pool) if rep.witness is not None else None,
        "final": None,
        "posets": None,
    }
    if rep.final is not None:
        obj["final"] = {
            "carrier": pool.ref(rep.final.carrier),
            "exact": rep.final.exact,
            "depth": rep.final.depth,
            "structure": _map_json(rep.final.structure, pool)
            if rep.final.structure is not None
            else None,
            "inverse": _map_json(rep.final.inverse, pool)
            if rep.final.inverse is not None
            else None,
        }
    obj["posets"] = pool.entries
    return obj


def load_solution_report(obj):
    """Reconstruct and re-verify a solution report from its JSON form."""
    _checked(obj, "solution-report")
    if _get(obj, "backend") != Backend.POINTED_STRICT.value:
        raise InputError("the outer iteration runs in the pointed-strict backend")
    posets = _pool_from_json(obj)
    params = [_pooled(posets, i) for i in _get(obj, "params", list)]
    rows = [_seq_from_json(row, posets) for row in _get(obj, "rows", list)]
    vertical = [_ep_from_json(e, posets) for e in _get(obj, "vertical_eps", list)]
    status = _status_from_json(_get(obj, "status"))
    budgets = _get(obj, "budgets", dict)
    _check_budgets(budgets, status, params, rows)
    # solve_hob stops without the last row's vertical ep when none exists
    if len(vertical) != len(rows) - (status.reason == "vertical-ep-unavailable"):
        raise InputError("a solution report has one vertical ep per row")
    for k, ep in enumerate(vertical):
        if ep.dom != params[k] or ep.cod != params[k + 1]:
            raise InputError("vertical ep endpoints disagree with the parameters")
    exact = _get(obj, "exact", bool)
    if exact != all(row_status.stabilized for _, _, row_status in rows):
        raise InputError(f"exact is {exact} but the rows say otherwise")
    witness = _get(obj, "witness")
    if witness is not None:
        witness = _iso_from_json(witness, posets)
    final = f = _get(obj, "final")
    if f is not None:
        structure, inverse = _get(f, "structure"), _get(f, "inverse")
        final = {
            "carrier": _pooled(posets, _get(f, "carrier")),
            "structure": _map_from_json(structure, posets) if structure else None,
            "inverse": _map_from_json(inverse, posets) if inverse else None,
            "exact": _get(f, "exact"),
            "depth": _get(f, "depth"),
        }
    z = _get(obj, "z")
    z = _pooled(posets, z) if z is not None else None
    _check_solved(status, params, rows, vertical, z, witness, final)
    return {
        "expr": _get(obj, "expr", str),
        "backend": obj["backend"],
        "budgets": budgets,
        "status": status,
        "params": params,
        "rows": rows,
        "vertical_eps": vertical,
        "witness": witness,
        "final": final,
        "z": z,
        "exact": exact,
    }


def _budget_values(budgets, keys):
    """The recorded budgets named by `keys`, each an int of at least 1."""
    values = [_get(budgets, key) for key in keys]
    for key, value in zip(keys, values):
        if type(value) is not int or value < 1:
            raise InputError(f"budget {key!r} must be an int of at least 1, found {value!r}")
    return values


def _check_row_budgets(name, stages, status, inner, cap):
    """A row unfolds at most `inner` steps: a `budget` truncation took all
    of them (inner + 1 stages), an `element-cap` one stopped before the
    last, and a row that stabilized (at an ep below `inner`) has at most
    inner + 1 stages, the outer iteration's unfolding past its fixed point
    included.  No stage exceeds `cap`."""
    if status.stabilized:  # at < len(stages) - 1, so at < inner too
        ok = len(stages) <= inner + 1
    elif status.reason == "budget":
        ok = len(stages) == inner + 1
    else:
        ok = status.reason == "element-cap" and len(stages) <= inner
    if not ok:
        raise InputError(f"{name}: {len(stages)} stages and status "
                         f"{status.describe()} disagree with inner budget {inner}")
    if max(len(s) for s in stages) > cap:
        raise InputError(f"{name} has a stage larger than element cap {cap}")


def _check_budgets(budgets, status, params, rows):
    """The recorded budgets against the rows they bound: each row as
    `_check_row_budgets` checks it.  There are at most `outer` rows, exactly
    `outer` for an `outer-budget` truncation (the other reason is
    `vertical-ep-unavailable`), and parameter n + 1 is row n's carrier: the
    stage it stabilized at, or its last."""
    inner, outer, cap = _budget_values(budgets, ("inner", "outer", "element_cap"))
    if len(params) != len(rows) + 1:
        raise InputError("a solution report has one parameter more than rows")
    if status.stabilized:
        ok = len(rows) <= outer
    elif status.reason == "outer-budget":
        ok = len(rows) == outer
    else:
        ok = status.reason == "vertical-ep-unavailable" and len(rows) <= outer
    if not ok:
        raise InputError(f"{len(rows)} rows disagree with outer status "
                         f"{status.describe()} at outer budget {outer}")
    for n, (stages, _, row_status) in enumerate(rows):
        _check_row_budgets(f"row {n}", stages, row_status, inner, cap)
        carrier = stages[row_status.at] if row_status.stabilized else stages[-1]
        if params[n + 1] != carrier:
            raise InputError(f"parameter {n + 1} is not row {n}'s carrier")


def _check_solved(status, params, rows, vertical, z, witness, final):
    """The outer status against the parts it implies.  Solved at n: row n
    is the last, it stabilized and vertical ep n is an iso; z is Z_n, the
    witness runs from row n's carrier into it, and `final` is row n's final
    coalgebra, whose structure map and inverse are the stabilizing ep-pair
    (an iso, so Lambek holds).  A truncated solution has none of the three."""
    if not status.stabilized:
        ok = z is None and witness is None and final is None
    else:
        n = status.at
        ok = 0 <= n == len(rows) - 1 and rows[n][2].stabilized
        if ok:
            stages, eps, row_status = rows[n]
            k = row_status.at
            ok = (vertical[n].as_iso() is not None and z == params[n]
                  and witness is not None and witness.dom == stages[k]
                  and witness.cod == z
                  and final == {"carrier": stages[k], "structure": eps[k].e,
                                "inverse": eps[k].p, "exact": True, "depth": k})
    if not ok:
        raise InputError(f"outer status {status.describe()} disagrees with the solution")


# --------------------------------------------------------------------------
# terminal-sequence reports


def terminal_report_json(seq, expr_text, inner_budget):
    """The report of `seq`, unfolded under `inner_budget` at its instance's
    element cap."""
    pool = _Pool()
    obj = {
        "kind": "terminal-report",
        "format": FORMAT,
        "expr": expr_text,
        "budgets": {"inner": inner_budget, "element_cap": seq.inst.element_cap},
        "row": _seq_json(seq, pool),
        "posets": pool.entries,
    }
    return obj


def load_terminal_report(obj):
    _checked(obj, "terminal-report")
    posets = _pool_from_json(obj)
    stages, eps, status = _seq_from_json(_get(obj, "row"), posets)
    budgets = _get(obj, "budgets", dict)
    _check_row_budgets("the row", stages, status,
                       *_budget_values(budgets, ("inner", "element_cap")))
    return {
        "expr": _get(obj, "expr", str),
        "budgets": budgets,
        "status": status,
        "stages": stages,
        "eps": eps,
    }


# --------------------------------------------------------------------------
# mediator reports


def mediator_report_json(rep):
    pool = _Pool()
    obj = {
        "kind": "mediator-report",
        "format": FORMAT,
        "expr_pointed": rep.expr_pointed,
        "expr_plain": rep.expr_plain,
        "status": rep.status,
        "pointed": _seq_json(rep.pointed_seq, pool),
        "plain": _seq_json(rep.plain_seq, pool, links="projs"),
        "stage_comparisons": [
            {
                "index": c.index,
                "size_pointed": c.size_pointed,
                "size_plain": c.size_plain,
                "iso": _iso_json(c.iso, pool) if c.iso is not None else None,
                "projections_agree": c.projections_agree,
            }
            for c in rep.stages
        ],
        "adjunction_sweep": [
            {"p_size": a, "q_size": b, "ok": ok} for (a, b, ok) in rep.adjunction_sweep
        ],
        "posets": None,
    }
    obj["posets"] = pool.entries
    return obj


def load_mediator_report(obj):
    _checked(obj, "mediator-report")
    posets = _pool_from_json(obj)
    pointed_stages, pointed_eps, _ = _seq_from_json(_get(obj, "pointed"), posets)
    plain_stages, plain_projs, _ = _seq_from_json(_get(obj, "plain"), posets,
                                                  links="projs")
    derived = compare_stages(pointed_stages, pointed_eps, plain_stages, plain_projs)
    recorded = _get(obj, "stage_comparisons", list)
    if len(recorded) != len(derived):
        raise InputError("the stage comparisons disagree with the stages both rows reach")
    for c, d in zip(recorded, derived):
        claims = [_get(c, key) for key in ("index", "size_pointed", "size_plain",
                                           "projections_agree")]
        iso = _get(c, "iso")
        if iso is not None:
            iso = _iso_from_json(iso, posets)
        if (claims != [d.index, d.size_pointed, d.size_plain, d.projections_agree]
                or (iso is None) != (d.iso is None)
                or iso and (iso.forward, iso.backward) != (d.iso.forward, d.iso.backward)):
            raise InputError(f"stage comparison {d.index} disagrees with the rows")
    sweep = [
        (_get(a, "p_size"), _get(a, "q_size"), _get(a, "ok", bool))
        for a in _get(obj, "adjunction_sweep", list)
    ]
    status = _get(obj, "status", str)
    if status != ("agree" if all(d.ok for d in derived) and all(ok for *_, ok in sweep)
                  else "disagree"):
        raise InputError(f"mediator status {status!r} disagrees with its comparisons")
    return {
        "expr_pointed": _get(obj, "expr_pointed", str),
        "expr_plain": _get(obj, "expr_plain", str),
        "adjunction_sweep": sweep,
        "status": status,
        "pointed_stages": pointed_stages,
        "pointed_eps": pointed_eps,
        "plain_stages": plain_stages,
        "plain_projs": plain_projs,
        "stage_isos": [d.iso for d in derived if d.iso is not None],
    }


# --------------------------------------------------------------------------
# DOT bundles


def dot_bundle(obj):
    """Per-stage Hasse diagrams of a report: {filename: dot source}.

    The report is loaded, and so re-verified, first; the diagrams are drawn
    from the stage posets its loader rebuilt.
    """
    loaded = load_report(obj)
    if obj["kind"] == "solution-report":
        rows = [stages for stages, _, _ in loaded["rows"]]
    elif obj["kind"] == "terminal-report":
        rows = [loaded["stages"]]
    else:
        rows = [loaded["pointed_stages"], loaded["plain_stages"]]
    return {
        f"stage_{r}_{c}.dot": poset_to_dot(p, f"stage_{r}_{c}")
        for r, stages in enumerate(rows)
        for c, p in enumerate(stages)
    }


def load_report(obj):
    kind = _get(obj, "kind")
    if kind == "solution-report":
        return load_solution_report(obj)
    if kind == "terminal-report":
        return load_terminal_report(obj)
    if kind == "mediator-report":
        return load_mediator_report(obj)
    raise InputError(f"unknown report kind {kind!r}")
