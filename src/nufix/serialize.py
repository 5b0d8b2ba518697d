"""Report serialization: JSON with a shared poset pool, DOT bundles, and
re-validating loaders.

Loading a report reconstructs every poset, ep-pair, and witness iso through
the same validating constructors used by the engine, so a tampered or
corrupted report fails loudly rather than round-tripping.
"""

from __future__ import annotations

import json

import numpy as np

from .engine import SeqStatus
from .errors import InputError
from .posets import (
    EpPair,
    Iso,
    MonoMap,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
)


class _Pool:
    def __init__(self):
        self.posets = []
        self._index = {}

    def ref(self, p):
        idx = self._index.get(p)
        if idx is None:
            idx = len(self.posets)
            self.posets.append(p)
            self._index[p] = idx
        return idx

    def dump(self):
        return [poset_to_json(p) for p in self.posets]


def _status_json(status):
    return {"state": status.kind, "at": status.at, "reason": status.reason}


def _status_from_json(obj):
    return SeqStatus(obj["state"], at=obj.get("at"), reason=obj.get("reason"))


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
        "table": [int(t) for t in m.table],
        "strict": m.strict,
    }


def _map_from_json(obj, posets):
    return MonoMap(
        _pooled(posets, obj["dom"]),
        _pooled(posets, obj["cod"]),
        np.array(obj["table"], dtype=np.int32),
        strict=obj.get("strict", False),
    )


def _ep_json(ep, pool):
    return {"e": _map_json(ep.e, pool), "p": _map_json(ep.p, pool)}


def _ep_from_json(obj, posets):
    return EpPair(_map_from_json(obj["e"], posets), _map_from_json(obj["p"], posets))


def _iso_json(iso, pool):
    return {
        "forward": _map_json(iso.forward, pool),
        "backward": _map_json(iso.backward, pool),
    }


def _iso_from_json(obj, posets):
    return Iso(
        _map_from_json(obj["forward"], posets),
        _map_from_json(obj["backward"], posets),
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
    stages = [_pooled(posets, i) for i in row["stages"]]
    if [len(s) for s in stages] != row["sizes"]:
        raise InputError("stage sizes disagree with the poset pool")
    if len(row[links]) != len(stages) - 1:
        raise InputError(f"a row of {len(stages)} stages needs {len(stages) - 1} {links}")
    if links == "eps":
        maps = [_ep_from_json(e, posets) for e in row[links]]
        ends = [(ep.dom, ep.cod) for ep in maps]
    else:
        maps = [_map_from_json(m, posets) for m in row[links]]
        ends = [(m.cod, m.dom) for m in maps]
    for k, (lower, upper) in enumerate(ends):
        if lower != stages[k] or upper != stages[k + 1]:
            raise InputError(f"{links} endpoints disagree with the stages")
    return stages, maps, _status_from_json(row["status"])


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# solution reports


def solution_report_json(rep):
    pool = _Pool()
    chain = rep.chain
    obj = {
        "kind": "solution-report",
        "expr": rep.expr_text,
        "backend": rep.backend.value,
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
    obj["posets"] = pool.dump()
    return obj


def load_solution_report(obj):
    """Reconstruct and re-verify a solution report from its JSON form."""
    if obj.get("kind") != "solution-report":
        raise InputError("not a solution report")
    posets = [poset_from_json(p) for p in obj["posets"]]
    params = [_pooled(posets, i) for i in obj["params"]]
    rows = [_seq_from_json(row, posets) for row in obj["rows"]]
    vertical = [_ep_from_json(e, posets) for e in obj["vertical_eps"]]
    status = _status_from_json(obj["status"])
    if len(params) != len(rows) + 1:
        raise InputError("a solution report has one parameter more than rows")
    # solve_hob stops without the last row's vertical ep when none exists
    if len(vertical) != len(rows) - (status.reason == "vertical-ep-unavailable"):
        raise InputError("a solution report has one vertical ep per row")
    for k, ep in enumerate(vertical):
        if ep.dom != params[k] or ep.cod != params[k + 1]:
            raise InputError("vertical ep endpoints disagree with the parameters")
    witness = None
    if obj["witness"] is not None:
        witness = _iso_from_json(obj["witness"], posets)
    final = None
    if obj["final"] is not None:
        f = obj["final"]
        structure = _map_from_json(f["structure"], posets) if f["structure"] else None
        inverse = _map_from_json(f["inverse"], posets) if f["inverse"] else None
        if structure is not None and inverse is not None:
            # Lambek: the structure map is an isomorphism
            Iso(structure, inverse)
        final = {
            "carrier": _pooled(posets, f["carrier"]),
            "structure": structure,
            "inverse": inverse,
            "exact": f["exact"],
            "depth": f["depth"],
        }
    if witness is not None and final is not None:
        if witness.dom != final["carrier"]:
            raise InputError("witness does not start at the final carrier")
    return {
        "status": status,
        "params": params,
        "rows": rows,
        "vertical_eps": vertical,
        "witness": witness,
        "final": final,
        "z": _pooled(posets, obj["z"]) if obj["z"] is not None else None,
        "exact": obj["exact"],
    }


# --------------------------------------------------------------------------
# terminal-sequence reports


def terminal_report_json(seq, expr_text):
    pool = _Pool()
    obj = {
        "kind": "terminal-report",
        "expr": expr_text,
        "row": _seq_json(seq, pool),
        "posets": pool.dump(),
    }
    return obj


def load_terminal_report(obj):
    if obj.get("kind") != "terminal-report":
        raise InputError("not a terminal report")
    posets = [poset_from_json(p) for p in obj["posets"]]
    stages, eps, status = _seq_from_json(obj["row"], posets)
    return {
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
    obj["posets"] = pool.dump()
    return obj


def load_mediator_report(obj):
    if obj.get("kind") != "mediator-report":
        raise InputError("not a mediator report")
    posets = [poset_from_json(p) for p in obj["posets"]]
    pointed_stages, pointed_eps, _ = _seq_from_json(obj["pointed"], posets)
    plain_stages, plain_projs, _ = _seq_from_json(obj["plain"], posets, links="projs")
    isos = []
    for c in obj["stage_comparisons"]:
        if c["iso"] is not None:
            isos.append(_iso_from_json(c["iso"], posets))
    return {
        "status": obj["status"],
        "pointed_stages": pointed_stages,
        "pointed_eps": pointed_eps,
        "plain_stages": plain_stages,
        "plain_projs": plain_projs,
        "stage_isos": isos,
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
    kind = obj.get("kind")
    if kind == "solution-report":
        return load_solution_report(obj)
    if kind == "terminal-report":
        return load_terminal_report(obj)
    if kind == "mediator-report":
        return load_mediator_report(obj)
    raise InputError(f"unknown report kind {kind!r}")
