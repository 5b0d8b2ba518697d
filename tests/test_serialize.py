"""Report round-trips: serialized reports reload through validating
constructors, and tampering is caught."""

import copy
import json
import re
from collections import Counter

import numpy as np
import pytest

from nufix import cli
from nufix import engine as E
from nufix import kernels
from nufix import mediator as M
from nufix import posets as P
from nufix import serialize as S
from nufix.errors import (
    BottomNotLeast,
    CycleDetected,
    DomainMismatch,
    EpLawViolation,
    InputError,
    NufixError,
)
from nufix.functors import Backend, instantiate


def det_report():
    return E.solve_hob("(V -!> Id) + W")


def atom_report(inner_budget=4, outer_budget=3):
    a = P.lift(P.discrete(["a"]))
    return E.solve_hob("(V -!> Id) + W + A", constants={"A": a},
                       inner_budget=inner_budget, outer_budget=outer_budget)


def test_solution_report_roundtrip_solved():
    rep = det_report()
    obj = json.loads(S.dumps(S.solution_report_json(rep)))
    loaded = S.load_solution_report(obj)
    assert loaded["status"].stabilized
    assert len(loaded["z"]) == 1
    assert loaded["witness"] is not None


def test_solution_report_roundtrip_truncated():
    rep = atom_report()
    obj = json.loads(S.dumps(S.solution_report_json(rep)))
    loaded = S.load_solution_report(obj)
    assert not loaded["status"].stabilized
    assert [len(z) for z in loaded["params"]] == [len(z) for z in rep.chain.params]


def test_tampered_ep_table_is_rejected():
    obj = _report_json(atom_report())
    # corrupt a vertical ep: swap the first and last projection outputs
    table = obj["vertical_eps"][1]["p"]["table"]
    assert len(set(table)) > 1
    table[0], table[-1] = table[-1], table[0]
    with pytest.raises(DomainMismatch, match="assignment is not monotone"):
        S.load_solution_report(obj)


def test_tampered_ep_that_stays_monotone_breaks_the_ep_law():
    obj = _report_json(atom_report())
    ep = obj["vertical_eps"][1]
    pool = S._pool_from_json(obj)
    x, y = pool[ep["e"]["dom"]], pool[ep["e"]["cod"]]
    e, p = ep["e"]["table"], ep["p"]["table"]
    # send one more element to the top of x: an element of y other than the
    # bottom whose only strict upper bound is e(top), so p stays monotone
    # and strict and p . e = id still holds, but e(p(k)) = e(top) is not below k
    top = e[-1]
    k = next(k for k in range(len(y)) if k not in (y.bottom_idx, top)
             and set(np.flatnonzero(y.leq[k]).tolist()) <= {k, top})
    p[k] = len(x) - 1
    assert kernels.monotone_ok(y.leq, x.leq, np.array(p))
    assert kernels.monotone_ok(x.leq, y.leq, np.array(e))
    with pytest.raises(EpLawViolation, match="e . p is not below the identity"):
        S.load_solution_report(obj)


@pytest.mark.parametrize("key, keep", [("params", 1), ("vertical_eps", 0)])
def test_solution_report_with_wrong_counts_is_rejected(key, keep):
    obj = json.loads(S.dumps(S.solution_report_json(atom_report())))
    assert obj["status"]["reason"] == "vertical-ep-unavailable"
    assert (len(obj["params"]), len(obj["rows"]), len(obj["vertical_eps"])) == (4, 3, 2)
    obj[key] = obj[key][:keep]
    with pytest.raises(InputError):
        S.load_solution_report(obj)


def _report_json(rep):
    return json.loads(S.dumps(S.solution_report_json(rep)))


def _drop_last_stage(row):
    for key in ("stages", "sizes", "eps"):
        row[key] = row[key][:-1]


BUDGET_TAMPERS = {
    "inner 4 -> 7": (lambda o: o["budgets"].update(inner=7), "inner budget 7"),
    "outer 3 -> 2": (lambda o: o["budgets"].update(outer=2), "outer budget 2"),
    "cap 512 -> 9": (lambda o: o["budgets"].update(element_cap=9), "element cap 9"),
    "budget row short": (lambda o: _drop_last_stage(o["rows"][1]), "inner budget 4"),
    "wrong carrier": (lambda o: o["params"].__setitem__(1, o["params"][2]), "carrier"),
}


@pytest.mark.parametrize("tamper", sorted(BUDGET_TAMPERS))
def test_solution_report_budgets_must_bound_the_rows(tamper):
    obj = _report_json(atom_report())
    assert obj["budgets"] == {"inner": 4, "outer": 3, "element_cap": 512}
    assert [(r["status"]["state"], r["status"]["reason"], r["sizes"]) for r in obj["rows"]] == [
        ("stabilized", None, [1, 2, 2, 2, 2]),
        ("truncated", "budget", [1, 3, 5, 7, 9]),
        ("truncated", "element-cap", [1, 10]),
    ]
    S.load_solution_report(obj)
    change, message = BUDGET_TAMPERS[tamper]
    change(obj)
    with pytest.raises(InputError, match=message):
        S.load_solution_report(obj)


def test_element_cap_rows_stop_before_the_inner_budget():
    obj = _report_json(E.solve_hob("U(Id)", inner_budget=6, element_cap=4))
    assert {(r["status"]["reason"], len(r["stages"])) for r in obj["rows"]} == {
        ("element-cap", 4)}
    S.load_solution_report(obj)
    obj["budgets"]["inner"] = 3
    with pytest.raises(InputError, match=r"row 0: 4 stages .* inner budget 3"):
        S.load_solution_report(obj)


def test_stabilized_rows_stay_within_the_inner_budget():
    obj = _report_json(E.solve_hob("Bool"))  # row 0 stabilized at 1 with 3 stages
    assert obj["rows"][0]["status"]["at"] == 1 and len(obj["rows"][0]["stages"]) == 3
    with pytest.raises(InputError, match="inner budget 1"):
        S.load_solution_report(_replaced(obj, ("budgets", "inner"), 1))
    # one more unfolding past the fixed point fits inner 3, not inner 2
    row = obj["rows"][0]
    for key in ("stages", "sizes", "eps"):
        row[key].append(row[key][-1])
    S.load_solution_report(_replaced(obj, ("budgets", "inner"), 3))
    with pytest.raises(InputError, match=r"row 0: 4 stages .* inner budget 2"):
        S.load_solution_report(_replaced(obj, ("budgets", "inner"), 2))


@pytest.mark.parametrize("path", [("rows", 2, "status", "reason"), ("status", "reason")])
def test_rows_and_solutions_truncate_for_a_known_reason(path):
    obj = _report_json(atom_report())
    with pytest.raises(InputError, match=r"truncated\(banana\)"):
        S.load_solution_report(_replaced(obj, path, "banana"))


@pytest.mark.parametrize("backend", ["no-such-backend", "lazy", "plain", None])
def test_a_solution_report_is_pointed_strict(backend):
    obj = _report_json(det_report())
    assert S.load_solution_report(obj)["backend"] == "pointed-strict"
    with pytest.raises(InputError, match="pointed-strict"):
        S.load_solution_report(_replaced(obj, ("backend",), backend))


def test_outer_budget_status_needs_every_row():
    obj = _report_json(atom_report(outer_budget=2))
    assert obj["status"]["reason"] == "outer-budget" and len(obj["rows"]) == 2
    S.load_solution_report(obj)
    obj["budgets"]["outer"] = 3
    with pytest.raises(InputError, match="outer budget 3"):
        S.load_solution_report(obj)


def test_a_larger_outer_budget_than_used_is_a_real_report():
    # the iteration stops at row 2 for want of a vertical ep whatever the
    # outer budget, so outer 3 -> 9 gives the report that outer 9 writes
    obj = _report_json(atom_report())
    obj["budgets"]["outer"] = 9
    assert obj == _report_json(atom_report(outer_budget=9))
    S.load_solution_report(obj)


@pytest.mark.parametrize("key", ["inner", "outer", "element_cap"])
@pytest.mark.parametrize("value", [0, -1, True, 4.0, "4", None])
def test_budgets_must_be_positive_ints(key, value):
    obj = copy.deepcopy(REPORTS["truncated-solution"])
    obj["budgets"][key] = value
    with pytest.raises(InputError, match=f"budget {key!r}"):
        S.load_solution_report(obj)


def test_tampered_poset_is_rejected():
    rep = det_report()
    obj = copy.deepcopy(S.solution_report_json(rep))
    obj["posets"][0]["elements"].append("ghost")
    with pytest.raises(Exception):
        S.load_solution_report(obj)


@pytest.fixture(scope="module")
def det_text():
    return S.dumps(S.solution_report_json(det_report()))


POOL_REFS = [("z",), ("rows", 0, "stages", 0), ("final", "carrier"),
             ("final", "structure", "dom")]
# each bad reference as a function of the pool's length
BAD_REFS = {"negative": lambda n: -1, "bool": lambda n: True, "past-the-end": lambda n: n,
            "str": lambda n: "x", "float": lambda n: 1.0}


def _with_ref(text, path, bad):
    """The report with the pool reference at `path` replaced by BAD_REFS[bad]."""
    obj = json.loads(text)
    value = BAD_REFS[bad](len(obj["posets"]))
    *outer, last = path
    node = obj
    for key in outer:
        node = node[key]
    node[last] = value
    return obj


@pytest.mark.parametrize("bad", sorted(BAD_REFS))
@pytest.mark.parametrize("path", POOL_REFS, ids=lambda path: "/".join(map(str, path)))
def test_bad_pool_reference_is_rejected(det_text, path, bad):
    with pytest.raises(InputError, match="not an index into a pool"):
        S.load_solution_report(_with_ref(det_text, path, bad))


def test_render_reports_a_bad_pool_reference(det_text, tmp_path, capsys):
    report = tmp_path / "bad.json"
    report.write_text(json.dumps(_with_ref(det_text, ("z",), "past-the-end")))
    assert cli.main(["render", "--report", str(report), "--out-dir", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and "not an index into a pool" in err["message"]


def terminal_report():
    inst = instantiate("U(Id)", Backend.POINTED_STRICT, P.unit(), P.unit())
    return S.terminal_report_json(E.terminal_sequence(inst, inner_budget=4), "U(Id)", 4)


def test_terminal_report_roundtrip():
    obj = json.loads(S.dumps(terminal_report()))
    loaded = S.load_terminal_report(obj)
    assert [len(s) for s in loaded["stages"]] == [1, 2, 3, 4, 5]


def test_terminal_report_with_wrong_sizes_is_rejected():
    obj = terminal_report()
    obj["row"]["sizes"][2] += 1
    with pytest.raises(InputError):
        S.load_terminal_report(obj)


def test_terminal_report_with_an_extra_ep_is_rejected():
    obj = terminal_report()
    row = obj["row"]
    last = row["stages"][-1]
    ident = {"dom": last, "cod": last, "table": list(range(row["sizes"][-1])), "strict": True}
    row["eps"].append({"e": ident, "p": ident})
    with pytest.raises(InputError):
        S.load_terminal_report(obj)


def test_mediator_report_roundtrip():
    rep = M.solve_lifted("Lift((V -> Id) + W)", P.unit(), P.unit(), inner_budget=4)
    obj = json.loads(S.dumps(S.mediator_report_json(rep)))
    loaded = S.load_mediator_report(obj)
    assert loaded["status"] == "agree"
    assert [len(s) for s in loaded["pointed_stages"]] == [1, 3, 5, 7, 9]
    assert len(loaded["stage_isos"]) == len(rep.stages)


def mediator_report():
    rep = M.solve_lifted("Lift((V -> Id) + W)", P.unit(), P.unit(), inner_budget=4)
    return S.mediator_report_json(rep)


@pytest.mark.parametrize("row", ["pointed", "plain"])
def test_mediator_report_with_swapped_stages_is_rejected(row):
    obj = mediator_report()
    stages = obj[row]["stages"]
    stages[1], stages[2] = stages[2], stages[1]
    obj[row]["sizes"] = [len(obj["posets"][i]["elements"]) for i in stages]
    with pytest.raises(InputError):
        S.load_mediator_report(obj)


def test_mediator_report_with_wrong_sizes_is_rejected():
    obj = mediator_report()
    obj["plain"]["sizes"][1] += 1
    with pytest.raises(InputError):
        S.load_mediator_report(obj)


def test_dot_bundle_names_follow_row_col_scheme():
    rep = atom_report()
    obj = S.solution_report_json(rep)
    bundle = S.dot_bundle(obj)
    assert "stage_0_0.dot" in bundle
    assert all(name.startswith("stage_") for name in bundle)
    some = bundle["stage_0_0.dot"]
    assert some.startswith("digraph") and "rankdir=BT" in some


def test_dumps_is_deterministic():
    rep1 = det_report()
    rep2 = det_report()
    assert S.dumps(S.solution_report_json(rep1)) == S.dumps(S.solution_report_json(rep2))


# --------------------------------------------------------------------------
# format 3: the pool, the format field and required fields


def _reports():
    """One small report of each kind, as written and read back."""
    return {
        "solution": json.loads(S.dumps(S.solution_report_json(det_report()))),
        "truncated-solution": json.loads(S.dumps(S.solution_report_json(atom_report()))),
        "terminal": json.loads(S.dumps(terminal_report())),
        "mediator": json.loads(S.dumps(mediator_report())),
    }


REPORTS = _reports()

# a terminal report over leaf parameters with covers: V is the chain b < a,
# W the two-point lattice; stage 2 holds the strict tables [0, 0] and [0, 1]
CHAIN_V = P.validate_poset(["b", "a"], [("b", "a")], "b")
SMALL_SEQ = E.terminal_sequence(
    instantiate("(V -!> Id) + W", Backend.POINTED_STRICT, CHAIN_V, P.boolean_lattice()), 4)
SMALL = json.loads(S.dumps(S.terminal_report_json(SMALL_SEQ, "(V -!> Id) + W", 4)))


def _covered_entry(obj):
    """Index of the first pool poset with a cover: a leaf."""
    return next(i for i, p in enumerate(obj["posets"]) if p.get("covers"))


def _entry(obj, kind, size=None):
    """Index of the first pool entry of `kind` (with `size` elements)."""
    return next(i for i, p in enumerate(obj["posets"]) if p.get("kind") == kind
                and size in (None, len(p["elements"])))


def test_pool_entries_hold_covers_by_index():
    # a leaf keeps its tags and covers; a constructed poset is its kind,
    # its operands' pool indices, its elements by index and its bottom
    obj = SMALL
    assert obj["format"] == 3
    leaves = [p for p in obj["posets"] if "covers" in p]
    assert leaves == [
        {"elements": ["*"], "covers": [], "bottom": 0},
        {"elements": ["b", "a"], "covers": [[0, 1]], "bottom": 0},
        {"elements": ["bot", "top"], "covers": [[0, 1]], "bottom": 0},
    ]
    stage2 = obj["posets"][obj["row"]["stages"][2]]
    tables = obj["posets"][stage2["children"][0]]
    assert tables == {"kind": "tables", "children": [1, obj["row"]["stages"][1]],
                      "elements": [[0, 0], [0, 1]], "bottom": 0, "strict": True}
    assert stage2 == {"kind": "coalesced", "children": [stage2["children"][0], 3],
                      "elements": [["cbot"], ["inl", 1], ["inr", 1]], "bottom": 0}
    for k, p in enumerate(obj["posets"]):
        assert all(ref < k for ref in p.get("children", ()))
    assert S.load_report(obj)["stages"] == SMALL_SEQ.stages


def test_uid_entries_are_upsets_of_the_stage_below():
    obj = REPORTS["terminal"]
    refs = obj["row"]["stages"]
    assert [obj["posets"][r] for r in refs[2:4]] == [
        {"kind": "upsets", "children": [refs[1]], "elements": [[], [1], [0, 1]],
         "bottom": 0, "strict": False},
        {"kind": "upsets", "children": [refs[2]], "elements": [[], [2], [1, 2], [0, 1, 2]],
         "bottom": 0, "strict": False},
    ]


@pytest.mark.parametrize("bad", sorted(BAD_REFS))
@pytest.mark.parametrize("end", [0, 1])
def test_bad_cover_index_is_rejected(bad, end):
    obj = copy.deepcopy(SMALL)
    entry = obj["posets"][_covered_entry(obj)]
    entry["covers"][0][end] = BAD_REFS[bad](len(entry["elements"]))
    with pytest.raises(InputError, match="order pairs must be element indices"):
        S.load_report(obj)


@pytest.mark.parametrize("covers", [[[0]], [[0, 1, 1]], [0], {"0": 1}, "01", 3])
def test_malformed_covers_are_rejected(covers):
    obj = copy.deepcopy(SMALL)
    obj["posets"][_covered_entry(obj)]["covers"] = covers
    with pytest.raises(InputError):
        S.load_report(obj)


@pytest.mark.parametrize("bad", sorted(BAD_REFS))
def test_bad_bottom_index_is_rejected(bad):
    obj = copy.deepcopy(SMALL)
    entry = obj["posets"][_covered_entry(obj)]
    entry["bottom"] = BAD_REFS[bad](len(entry["elements"]))
    with pytest.raises(InputError, match="bottom must be element indices"):
        S.load_report(obj)


def test_bottom_that_is_not_least_is_rejected():
    obj = copy.deepcopy(SMALL)
    entry = obj["posets"][_covered_entry(obj)]
    entry["bottom"] = entry["covers"][0][1]
    with pytest.raises(BottomNotLeast):
        S.load_report(obj)


def test_cyclic_covers_are_rejected():
    obj = copy.deepcopy(SMALL)
    entry = obj["posets"][_covered_entry(obj)]
    entry["covers"].append(entry["covers"][0][::-1])
    with pytest.raises(CycleDetected):
        S.load_report(obj)


def _tampered(obj, change):
    obj = copy.deepcopy(obj)
    change(obj["posets"])
    return obj


# each fault in a constructed entry, as a change to the SMALL report's pool:
# TABLES is stage 2's tables [[0, 0], [0, 1]] from V (b < a, entry 1), and
# the entry after it stage 2, their coalesced sum with W
TABLES = _entry(SMALL, "tables", 2)
FORM_TAMPERS = {
    "operand-forward": (lambda ps: ps[TABLES]["children"].__setitem__(1, TABLES),
                        "operand reference"),
    "operand-past-the-end": (lambda ps: ps[TABLES]["children"].__setitem__(1, len(ps)),
                             "operand reference"),
    "operand-negative": (lambda ps: ps[TABLES]["children"].__setitem__(1, -1),
                         "operand reference"),
    "operand-bool": (lambda ps: ps[TABLES]["children"].__setitem__(0, True),
                     "operand reference"),
    "operand-missing": (lambda ps: ps[TABLES]["children"].pop(), "2 operands, not 1"),
    "children-missing": (lambda ps: ps[TABLES].pop("children"), "'children' is missing"),
    "elements-missing": (lambda ps: ps[TABLES].pop("elements"), "'elements' is missing"),
    "bottom-missing": (lambda ps: ps[TABLES].pop("bottom"), "'bottom' is missing"),
    "strict-missing": (lambda ps: ps[TABLES].pop("strict"), "'strict' is missing"),
    "unknown-kind": (lambda ps: ps[TABLES].update(kind="graph"), "unknown construction kind"),
    "kind-list": (lambda ps: ps[TABLES].update(kind=["tables"]), "unknown construction kind"),
    "row-out-of-range": (lambda ps: ps[TABLES]["elements"][1].__setitem__(1, 2),
                         "element indices below 2"),
    "row-negative": (lambda ps: ps[TABLES]["elements"][1].__setitem__(1, -1),
                     "element indices below 2"),
    "row-bool": (lambda ps: ps[TABLES]["elements"][1].__setitem__(1, True),
                 "element indices below 2"),
    "row-too-short": (lambda ps: ps[TABLES]["elements"][1].pop(), "lists of 2 element"),
    "duplicate-rows": (lambda ps: ps[TABLES]["elements"].__setitem__(1, [0, 0]), "twice"),
    "not-monotone": (lambda ps: ps[TABLES]["elements"].__setitem__(1, [1, 0]),
                     "not monotone"),
    "not-strict": (lambda ps: ps[TABLES]["elements"].__setitem__(1, [1, 1]),
                   "strict table"),
    "strict-not-a-bool": (lambda ps: ps[TABLES].update(strict=1), "'strict'"),
    "fewer-elements": (lambda ps: ps[TABLES + 1]["elements"].pop(), "has 3 elements, not 2"),
    "more-elements": (lambda ps: ps[TABLES + 1]["elements"].append(["inr", 0]),
                      "has 3 elements, not 4"),
    "elements-out-of-order": (lambda ps: ps[TABLES + 1]["elements"].reverse(), "layout"),
    "element-head": (lambda ps: ps[TABLES + 1]["elements"][1].__setitem__(0, "inr"),
                     "layout"),
    "bottom-not-least": (lambda ps: ps[TABLES + 1].update(bottom=1),
                         "bottom 1 is not below every element"),
    "bottom-past-the-end": (lambda ps: ps[TABLES + 1].update(bottom=3),
                            "bottom must be element indices"),
    "unpointed-summand": (lambda ps: ps[TABLES].update(bottom=None),
                          "coalesced sum needs pointed summands"),
}


@pytest.mark.parametrize("tamper", sorted(FORM_TAMPERS))
def test_each_construction_field_is_checked(tamper):
    assert SMALL["posets"][TABLES]["children"] == [1, TABLES - 1]
    assert SMALL["posets"][TABLES + 1]["kind"] == "coalesced"
    S.load_report(SMALL)
    change, message = FORM_TAMPERS[tamper]
    with pytest.raises(InputError, match=message):
        S.load_report(_tampered(SMALL, change))


UPSET_TAMPERS = {
    "not-up-closed": (lambda ps, i: ps[i]["elements"].__setitem__(1, [0]), "up-closed"),
    "member-twice": (lambda ps, i: ps[i]["elements"].__setitem__(1, [1, 1]), "twice"),
    "member-out-of-range": (lambda ps, i: ps[i]["elements"].__setitem__(1, [2]),
                            "indices below 2"),
    "duplicate-upsets": (lambda ps, i: ps[i]["elements"].__setitem__(1, [0, 1]), "twice"),
    "member-not-an-index": (lambda ps, i: ps[i]["elements"].__setitem__(1, 1), "lists"),
}


@pytest.mark.parametrize("tamper", sorted(UPSET_TAMPERS))
def test_each_upset_field_is_checked(tamper):
    obj = REPORTS["terminal"]  # stage 2: the upsets [], [1], [0, 1] of a 2-chain
    stage2 = obj["row"]["stages"][2]
    change, message = UPSET_TAMPERS[tamper]
    with pytest.raises(InputError, match=message):
        S.load_report(_tampered(obj, lambda ps: change(ps, stage2)))


def test_a_strict_upset_must_not_hold_the_bottom():
    obj = stabilizing_report("Us(Id)")
    stage1 = obj["posets"][obj["row"]["stages"][1]]
    assert stage1 == {"kind": "upsets", "children": [0], "elements": [[]], "bottom": 0,
                      "strict": True}
    S.load_report(obj)
    with pytest.raises(InputError, match="strict upset holds the bottom"):
        S.load_report(_tampered(obj, lambda ps: ps[1].update(elements=[[0]])))


def test_render_of_a_format_2_report_asks_for_a_rerun(tmp_path, capsys):
    # the Us(Id) terminal report as format 2 wrote it
    report = tmp_path / "old.json"
    report.write_text(
        '{"expr":"Us(Id)","format":2,"kind":"terminal-report","posets":[{"bottom":0,'
        '"covers":[],"elements":["*"]},{"bottom":0,"covers":[],"elements":[["upset",[]]]}],'
        '"row":{"eps":[{"e":{"cod":1,"dom":0,"strict":true,"table":[0]},"p":{"cod":0,'
        '"dom":1,"strict":true,"table":[0]}}],"sizes":[1,1],"stages":[0,1],"status":'
        '{"at":0,"reason":null,"state":"stabilized"}}}\n')
    assert cli.main(["render", "--report", str(report), "--out-dir", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "InputError", "message": "report format 2 is not readable: this "
                   "version reads format 3; rerun the command to rewrite it"}


@pytest.mark.parametrize("kind", sorted(REPORTS))
@pytest.mark.parametrize("fmt", [None, 1, 2, "3", 2.0, 3.0, True])
def test_other_formats_are_rejected(kind, fmt):
    obj = copy.deepcopy(REPORTS[kind])
    if fmt is None:
        del obj["format"]
    else:
        obj["format"] = fmt
    named = f"report format {1 if fmt is None else fmt!r} is not readable"
    with pytest.raises(InputError, match=re.escape(named)):
        S.load_report(obj)


@pytest.mark.parametrize("kind, key", [(kind, key) for kind in sorted(REPORTS)
                                       for key in sorted(REPORTS[kind])])
def test_each_top_level_field_is_required(kind, key):
    obj = copy.deepcopy(REPORTS[kind])
    del obj[key]
    with pytest.raises(InputError):
        S.load_report(obj)


def _paths(node, path=()):
    """Every path into a JSON tree, the root first."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _replaced(obj, path, value):
    """A copy of `obj` with the node at `path` replaced by `value`."""
    if not path:
        return value
    obj = copy.deepcopy(obj)
    _at(obj, path[:-1])[path[-1]] = value
    return obj


@pytest.mark.parametrize("kind", sorted(REPORTS))
def test_objects_replaced_by_lists_are_rejected(kind):
    obj = REPORTS[kind]
    objects = [p for p in _paths(obj) if isinstance(_at(obj, p), dict)]
    assert len(objects) > 10
    for path in objects:
        with pytest.raises(InputError):
            S.load_report(_replaced(obj, path, [0]))


@pytest.mark.parametrize("kind", sorted(REPORTS))
def test_any_retyped_field_raises_only_nufix_errors(kind):
    obj = REPORTS[kind]
    firsts = [p for p in _paths(obj) if not any(k != 0 for k in p if type(k) is int)]
    for path in firsts:  # the first item of each list stands for the others
        old = _at(obj, path)
        for value in ([], {}, "x", -1, True, None, [[0, 0]]):
            if type(value) is type(old) and value == old:
                continue
            try:
                S.load_report(_replaced(obj, path, value))
            except NufixError:
                pass


def test_render_reports_a_missing_field(tmp_path, capsys):
    obj = copy.deepcopy(REPORTS["terminal"])
    del obj["row"]
    report = tmp_path / "bad.json"
    report.write_text(json.dumps(obj))
    assert cli.main(["render", "--report", str(report), "--out-dir", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "InputError", "message": "report field 'row' is missing"}


# --------------------------------------------------------------------------
# statuses must agree with their rows


def _row_status(obj, **status):
    obj = copy.deepcopy(obj)
    obj["row"]["status"].update(status)
    return obj


@pytest.mark.parametrize("state", ["banana", "", None, 1, ["stabilized"]])
def test_unknown_state_is_rejected(state):
    with pytest.raises(InputError, match="is not a sequence status"):
        S.load_report(_row_status(REPORTS["terminal"], state=state))


def test_stabilized_at_a_non_iso_is_rejected():
    obj = REPORTS["terminal"]  # U(Id) at budget 4: truncated, no iso
    assert obj["row"]["status"]["state"] == "truncated"
    bad = _row_status(obj, state="stabilized", at=2, reason=None)
    with pytest.raises(InputError, match=r"stabilized\(2\) disagrees"):
        S.load_report(bad)


def stabilizing_report(expr):
    inst = instantiate(expr, Backend.POINTED_STRICT, P.unit(), P.unit())
    seq = E.terminal_sequence(inst, E.DEFAULT_INNER_BUDGET)
    return json.loads(S.dumps(S.terminal_report_json(seq, expr, E.DEFAULT_INNER_BUDGET)))


@pytest.mark.parametrize("at", [-1, 0, 2, True])
def test_stabilized_at_the_wrong_ep_is_rejected(at):
    obj = stabilizing_report("Lift(W)")  # eps: not an iso, then an iso
    assert obj["row"]["status"] == {"state": "stabilized", "at": 1, "reason": None}
    S.load_report(obj)
    with pytest.raises(InputError):
        S.load_report(_row_status(obj, at=at))


def test_truncated_row_with_an_iso_is_rejected():
    obj = stabilizing_report("Us(Id)")  # its one ep is an iso
    bad = _row_status(obj, state="truncated", at=None, reason="budget")
    with pytest.raises(InputError, match=r"truncated\(budget\) disagrees"):
        S.load_report(bad)


def test_rows_unfolded_past_their_fixed_point_load():
    obj = REPORTS["truncated-solution"]
    row = obj["rows"][0]
    assert row["status"]["state"] == "stabilized"
    assert len(row["eps"]) > row["status"]["at"] + 1
    assert S.load_report(obj)["rows"][0][2].at == row["status"]["at"]


def test_exact_claim_on_a_truncated_solution_is_rejected():
    obj = copy.deepcopy(REPORTS["truncated-solution"])
    assert obj["exact"] is False
    obj["exact"] = True
    with pytest.raises(InputError, match="exact"):
        S.load_report(obj)


def test_inexact_claim_on_an_exact_solution_is_rejected():
    obj = copy.deepcopy(REPORTS["solution"])
    assert obj["exact"] is True
    obj["exact"] = False
    with pytest.raises(InputError, match="exact"):
        S.load_report(obj)


SOLVED_CLAIMS = [
    (("status",), {"state": "truncated", "at": None, "reason": "outer-budget"}),
    (("final", "depth"), 1),
    (("final", "exact"), False),
    (("final",), None),
    (("witness",), None),
    (("z",), None),
]


@pytest.mark.parametrize("path, value", SOLVED_CLAIMS,
                         ids=lambda v: "/".join(v) if isinstance(v, tuple) else repr(v))
def test_solution_parts_must_agree_with_the_outer_status(path, value):
    obj = REPORTS["solution"]
    assert obj["status"]["state"] == "stabilized"
    with pytest.raises(InputError, match="outer status"):
        S.load_report(_replaced(obj, path, value))


def test_truncated_solution_has_no_solution_parts():
    obj = REPORTS["truncated-solution"]
    assert obj["status"]["state"] == "truncated"
    with pytest.raises(InputError, match="outer status"):
        S.load_report(_replaced(obj, ("z",), obj["params"][0]))


def test_solution_solved_at_an_earlier_row_is_rejected():
    obj = json.loads(S.dumps(S.solution_report_json(E.solve_hob("Bool"))))
    assert obj["status"] == {"state": "stabilized", "at": 1, "reason": None}
    S.load_report(obj)
    with pytest.raises(InputError, match="outer status"):
        S.load_report(_replaced(obj, ("status", "at"), 0))


MEDIATOR = REPORTS["mediator"]
MEDIATOR_CLAIMS = [
    (("status",), "disagree"),
    (("status",), "banana"),
    (("stage_comparisons",), MEDIATOR["stage_comparisons"][:-1]),
    (("stage_comparisons", 1, "index"), 2),
    (("stage_comparisons", 1, "size_pointed"), 99),
    (("stage_comparisons", 1, "size_plain"), 99),
    (("stage_comparisons", 2, "projections_agree"), False),
    (("stage_comparisons", 1, "iso"), None),
    (("stage_comparisons", 1, "iso"), MEDIATOR["stage_comparisons"][2]["iso"]),
    (("adjunction_sweep", 0, "ok"), False),
    (("pointed", "status"), {"state": "stabilized", "at": 1, "reason": None}),
    (("plain", "status"), {"state": "stabilized", "at": 1, "reason": None}),
]


@pytest.mark.parametrize("path, value", MEDIATOR_CLAIMS,
                         ids=[f"{'/'.join(map(str, p))}={v!r}"[:40] for p, v in MEDIATOR_CLAIMS])
def test_mediator_claims_must_agree_with_the_rows(path, value):
    assert MEDIATOR["status"] == "agree"
    with pytest.raises(InputError, match="disagree"):
        S.load_report(_replaced(MEDIATOR, path, value))


def test_mediator_disagreement_without_an_iso_is_rejected():
    # the stage's orders are equal, so the identity refutes a missing iso
    obj = _replaced(MEDIATOR, ("stage_comparisons", 1, "iso"), None)
    obj["status"] = "disagree"
    with pytest.raises(InputError, match="stage comparison 1 disagrees"):
        S.load_report(obj)


def test_mediator_stage_witness_must_be_the_identity():
    # [0, 2, 1] is an automorphism of stage 1, so it is an iso with the
    # right endpoints, but it is not the witness the loader derives
    obj = copy.deepcopy(MEDIATOR)
    iso = obj["stage_comparisons"][1]["iso"]
    assert iso["forward"]["table"] == iso["backward"]["table"] == [0, 1, 2]
    iso["forward"]["table"] = iso["backward"]["table"] = [0, 2, 1]
    S._iso_from_json(iso, S._pool_from_json(obj))  # a verified iso
    with pytest.raises(InputError, match="stage comparison 1 disagrees"):
        S.load_report(obj)


# --------------------------------------------------------------------------
# terminal budgets, and tampers that once escaped as other errors


TERMINAL_BUDGET_TAMPERS = {
    "row short": (lambda o: _drop_last_stage(o["row"]), "inner budget 4"),
    "inner 4 -> 5": (lambda o: o["budgets"].update(inner=5), "inner budget 5"),
    "inner 4 -> 3": (lambda o: o["budgets"].update(inner=3), "inner budget 3"),
    "cap 512 -> 4": (lambda o: o["budgets"].update(element_cap=4), "element cap 4"),
    "inner 0": (lambda o: o["budgets"].update(inner=0), "budget 'inner'"),
    "cap missing": (lambda o: o["budgets"].pop("element_cap"), "'element_cap' is missing"),
}


@pytest.mark.parametrize("tamper", sorted(TERMINAL_BUDGET_TAMPERS))
def test_terminal_report_budgets_must_bound_the_row(tamper):
    obj = copy.deepcopy(REPORTS["terminal"])  # U(Id) truncated at inner budget 4
    assert obj["budgets"] == {"inner": 4, "element_cap": 512}
    assert obj["row"]["status"]["reason"] == "budget" and obj["row"]["sizes"] == [1, 2, 3, 4, 5]
    assert S.load_report(obj)["budgets"] == obj["budgets"]
    change, message = TERMINAL_BUDGET_TAMPERS[tamper]
    change(obj)
    with pytest.raises(InputError, match=message):
        S.load_report(obj)


def test_a_strict_witness_between_plain_stages_is_an_input_error():
    obj = copy.deepcopy(MEDIATOR)
    obj["stage_comparisons"][1]["iso"]["forward"]["strict"] = True
    with pytest.raises(InputError, match="strict map needs a pointed domain and codomain"):
        S.load_report(obj)


@pytest.mark.parametrize("path", [("row", "eps", 1, "e"), ("row", "eps", 1, "p")])
def test_a_strict_map_that_drops_the_bottom_is_an_input_error(path):
    # [1, 2] and [1, 1, 1] are monotone but move the bottom, which the
    # strict flag forbids
    obj = copy.deepcopy(REPORTS["terminal"])
    table = _at(obj, path)["table"]
    _at(obj, path)["table"] = [1] * len(table) if path[-1] == "p" else [1, 2]
    with pytest.raises(InputError, match="does not keep the bottom"):
        S.load_report(obj)


def test_a_pointed_stage_without_its_bottom_is_an_input_error():
    obj = copy.deepcopy(MEDIATOR)
    entry = obj["posets"][obj["pointed"]["stages"][1]]
    assert entry["bottom"] == 0
    entry["bottom"] = None
    with pytest.raises(InputError, match="strict map needs a pointed domain and codomain"):
        S.load_report(obj)


# --------------------------------------------------------------------------
# round trips: the engine's stages come back, and no tag tree is built

STABILIZING = ("Us(Id)", "(V -!> Id) + W", "Lift(W)", "(V -!> Id) + W + Us(Id)",
               "(V -!> Id) + W + Lift(W)", "Us(Id * Id)")
FLAT2 = P.validate_poset(["b", "a"], [("b", "a")], "b")


def _engine_run(name):
    """A report writer and the engine's stages, row by row, for `name`."""
    one = P.unit()
    if name in STABILIZING:
        seq = E.terminal_sequence(instantiate(name, Backend.POINTED_STRICT, one, one, 4096), 8)
        return lambda: S.terminal_report_json(seq, name, 8), [seq.stages]
    if name == "mediator":
        rep = M.solve_lifted("Lift((V -> Id) + W)", one, one, inner_budget=6)
        return (lambda: S.mediator_report_json(rep),
                [rep.pointed_seq.stages, rep.plain_seq.stages])
    if name == "atom":
        rep = E.solve_hob("(V -!> Id) + W + A", constants={"A": FLAT2}, element_cap=4096)
    else:
        rep = E.solve_hob("Us(C * W * Id + C * (V -> Id) + Id)", constants={"C": FLAT2},
                          element_cap=1024)
    return lambda: S.solution_report_json(rep), [seq.stages for seq in rep.chain.rows]


def _loaded_rows(loaded):
    if "rows" in loaded:
        return [stages for stages, _, _ in loaded["rows"]]
    if "stages" in loaded:
        return [loaded["stages"]]
    return [loaded["pointed_stages"], loaded["plain_stages"]]


def count_constructed_tag_reads(monkeypatch):
    """A Counter of the calls through `posets._tags` on constructed posets,
    by kind, from now on."""
    reads, view = Counter(), P._tags

    def counting(p):
        if p._record.kind is not None:
            reads[p._record.kind] += 1
        return view(p)

    monkeypatch.setattr(P, "_tags", counting)
    return reads


@pytest.mark.parametrize("name", STABILIZING + ("atom", "HO-CCS", "mediator"))
def test_reloaded_stages_equal_the_engines(name, monkeypatch):
    write, engine_rows = _engine_run(name)
    reads = count_constructed_tag_reads(monkeypatch)
    obj = json.loads(S.dumps(write()))
    loaded = S.load_report(obj)
    S.dot_bundle(obj)
    assert not reads  # writing, loading and drawing build no tag tree
    rows = _loaded_rows(loaded)
    assert [len(r) for r in rows] == [len(r) for r in engine_rows]
    assert all(s._record.tags is None for r in rows for s in r if s._record.kind)
    for engine_stages, stages in zip(engine_rows, rows):
        for a, b in zip(engine_stages, stages):
            assert np.array_equal(a.leq, b.leq) and a.bottom_idx == b.bottom_idx
            assert b.elements == a.elements  # the view, built now
    assert reads


def test_render_labels_elements_by_their_forms():
    stage2 = S.dot_bundle(SMALL)["stage_0_2.dot"]
    labels = re.findall(r'label="([^"]*)"', stage2)
    assert labels == ["_|_", "l.1", "r.1"]
    assert re.findall(r'label="([^"]*)"', S.dot_bundle(REPORTS["terminal"])["stage_0_3.dot"]) == [
        "{}", "{2}", "{1,2}", "{0,1,2}"]
    tables = P.fun_space(P.discrete(["x"]), P.chain(2))
    pairs = P.product(P.chain(2), P.boolean_lattice())
    assert P.element_labels(tables) == ["<0>", "<1>"]
    assert P.element_labels(pairs) == ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]
    assert P.element_labels(P.lift(P.discrete(["x"]))) == ["_|_", "^0"]
    assert P.element_labels(P.separated_sum(P.unit(), P.unit())) == ["l.0", "r.0"]
    # a strict upset space, empty domains and operands, a one-point summand
    flat = P.lift(P.discrete(["x", "y"]))
    assert P.element_labels(P.strict_upsets(flat)) == ["{}", "{2}", "{1}", "{1,2}"]
    assert P.element_labels(P.fun_space(P.empty_poset(), P.chain(2))) == ["<>"]
    assert P.element_labels(P.product(P.empty_poset(), P.chain(2))) == []
    assert P.element_labels(P.separated_sum(P.empty_poset(), P.chain(2))) == ["r.0", "r.1"]
    assert P.element_labels(P.coalesced_sum(P.unit(), P.chain(3))) == ["_|_", "r.1", "r.2"]


def test_the_pool_keys_entries_by_construction():
    # equal constructions share an entry; other rows or another bottom over
    # the same operands get their own, and none of it reads a tag
    a, b = P.lift(P.chain(2)), P.boolean_lattice()
    made = [P.fun_space(a, b), P.strict_fun_space(a, b), P.fun_space(a, b),
            P.lift(b), M.include(P.lift(b)), P.lift(b)]
    pool = S._Pool()
    refs = [pool.ref(p) for p in made]
    assert refs[0] == refs[2] != refs[1] and refs[3] == refs[5] != refs[4]
    assert len(pool.entries) == 7  # a, b, the chain below a and four constructions
    loaded = S._pool_from_json({"posets": json.loads(json.dumps(pool.entries))})
    for p, ref in zip(made, refs):
        q = loaded[ref]
        assert np.array_equal(q.leq, p.leq) and q.bottom_idx == p.bottom_idx
        assert q.elements == p.elements
