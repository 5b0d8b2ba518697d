"""Report round-trips: serialized reports reload through validating
constructors, and tampering is caught."""

import copy
import json

import pytest

from nufix import cli
from nufix import engine as E
from nufix import mediator as M
from nufix import posets as P
from nufix import serialize as S
from nufix.errors import EpLawViolation, InputError
from nufix.functors import Backend, instantiate


def det_report():
    return E.solve_hob("(V -!> Id) + W")


def atom_report():
    a = P.lift(P.discrete(["a"]))
    return E.solve_hob("(V -!> Id) + W + A", constants={"A": a},
                       inner_budget=4, outer_budget=3)


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
    rep = atom_report()
    obj = S.solution_report_json(rep)
    bad = copy.deepcopy(obj)
    # corrupt a vertical ep: swap the projection outputs
    table = bad["vertical_eps"][1]["p"]["table"]
    if len(set(table)) > 1:
        table[0], table[-1] = table[-1], table[0]
        with pytest.raises((EpLawViolation, InputError, Exception)):
            S.load_solution_report(bad)


@pytest.mark.parametrize("key, keep", [("params", 1), ("vertical_eps", 0)])
def test_solution_report_with_wrong_counts_is_rejected(key, keep):
    obj = json.loads(S.dumps(S.solution_report_json(atom_report())))
    assert obj["status"]["reason"] == "vertical-ep-unavailable"
    assert (len(obj["params"]), len(obj["rows"]), len(obj["vertical_eps"])) == (4, 3, 2)
    obj[key] = obj[key][:keep]
    with pytest.raises(InputError):
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
    return S.terminal_report_json(E.terminal_sequence(inst, inner_budget=4), "U(Id)")


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
    obj[row]["sizes"] = [len(P.poset_from_json(obj["posets"][i])) for i in stages]
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
