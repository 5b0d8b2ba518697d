"""CLI checks: exit-code conventions, report determinism, reload
validation, DOT emission."""

import contextlib
import hashlib
import io
import json

import pytest

from nufix import cli
from nufix import engine as E
from nufix import functors as F
from nufix import posets as P
from nufix import serialize as S
from nufix.cli import build_parser, main

DET = "(V -!> Id) + W"


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class RawText(str):
    """A file's text as it stands, for `write_json` to write unencoded."""


def write_json(path, obj):
    if isinstance(obj, RawText):
        return write(path, obj)
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_solve_exit_zero_and_report(workdir):
    f = write(workdir / "det.expr", DET)
    out = str(workdir / "det.json")
    assert main(["solve", "-f", f, "--out", out]) == 0
    obj = json.loads(open(out).read())
    assert obj["status"]["state"] == "stabilized"
    z = obj["posets"][obj["z"]]
    assert len(z["elements"]) == 1
    S.load_report(obj)


def test_solve_truncated_exit_two(workdir):
    f = write(workdir / "u.expr", "U(Id)")
    out = str(workdir / "u.json")
    assert main(["solve", "-f", f, "--out", out]) == 2
    obj = json.loads(open(out).read())
    assert obj["rows"][0]["sizes"] == [1, 2, 3, 4, 5, 6, 7, 8, 9]


def test_reports_are_pinned(workdir):
    # a deliberate report format change updates these digests
    consts = write_json(
        workdir / "consts.json",
        {"A": {"elements": ["b", "a"], "leq": [["b", "a"]], "bottom": "b"}},
    )
    cases = [
        (DET, ["solve", "--element-cap", "512"], 0,
         "442d715a7257ec8547aa516904f601d7e8f1dd3c30e2ef69d7fa5ec797fe5463"),
        (DET + " + A", ["solve", "--element-cap", "512", "--constants", consts], 2,
         "e02d89ec5db1fba73ab0593d06b7b29bf946e820f8fd5a026a0f31b30a23d458"),
        ("U(Id)", ["terminal", "--inner-budget", "5", "--element-cap", "4096"], 2,
         "4441b9972bf7dbb92de4ea009b09b87c1ea33a812ec176012c208414ac17d793"),
        ("Us(Id)", ["terminal"], 0,
         "839e439ccf72ccedbf096c7de42c5b48dbb352878dcc4b772ddee5cb45a70139"),
        ("Lift((V -> Id) + W)", ["mediator", "--inner-budget", "6"], 0,
         "ffe131e470c0957cff49d751e7247f69948a8abcf348a2931591cc5e40ad91b6"),
    ]
    for k, (expr, argv, code, digest) in enumerate(cases):
        f = write(workdir / f"in{k}.expr", expr + "\n")
        out = workdir / f"out{k}.json"
        assert main(argv + ["-f", f, "--out", str(out)]) == code, expr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, expr


def test_larger_solve_reports_are_pinned(workdir):
    # the outer iteration's shared instances and memoized ep actions must
    # not change a byte of these; a deliberate format change updates them
    consts = write_json(
        workdir / "consts.json",
        {n: {"elements": ["b", "a"], "leq": [["b", "a"]], "bottom": "b"} for n in "AC"},
    )
    cases = [
        (DET + " + A", "4096", 2,
         "d0b0fb4529668adaf9eb52688c11b5a1b52133e61a38105c6a3972dfc88d8c03"),
        ("Us(C * W * Id + C * (V -> Id) + Id)", "1024", 2,
         "d88f3d9f57cf1280f8c13ad309682fa8c2eb9ca56d4701bd3d3ec1eaa78055d4"),
        # rows of sizes [1, 4, 1805] and [1]: reindexing across rows reaches
        # a 1805-element stage
        ("Us(C * W * Id + C * (V -> Id) + Id)", "4096", 2,
         "eeb99321bf5525fb3e9b82f38e96d211c64e91227fd1e9732f0922cc1135976d"),
    ]
    for k, (expr, cap, code, digest) in enumerate(cases):
        f = write(workdir / f"in{k}.expr", expr + "\n")
        out = workdir / f"out{k}.json"
        argv = ["solve", "-f", f, "--element-cap", cap, "--constants", consts]
        assert main(argv + ["--out", str(out)]) == code, expr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, expr


def test_deep_tag_report_stays_small(workdir):
    # U(Id) nests every element of stage k in the tags of stage k + 1; the
    # pool writes each stage once, its upsets as member indices of the last
    f = write(workdir / "u.expr", "U(Id)\n")
    out = workdir / "u.json"
    argv = ["terminal", "-f", f, "--inner-budget", "7", "--element-cap", "4096"]
    assert main(argv + ["--out", str(out)]) == 2
    assert out.stat().st_size < 150_000
    assert main(["render", "--report", str(out), "--out-dir", str(workdir / "dots")]) == 0


def test_deep_tag_reports_grow_with_the_stages_not_the_tags(workdir):
    # the tag trees grow about 7x a stage (0.49 MB at budget 8 in format 2);
    # format 3 writes stage k's k + 1 upsets of at most k members each, so
    # the report grows with the cube of the budget, not exponentially
    f = write(workdir / "u.expr", "U(Id)\n")
    sizes = {}
    for budget in (8, 16, 40):
        out = workdir / f"u{budget}.json"
        argv = ["terminal", "-f", f, "--inner-budget", str(budget), "--element-cap", "4096"]
        assert main(argv + ["--out", str(out)]) == 2
        sizes[budget] = out.stat().st_size
    assert sizes[8] < 5_000 and sizes[40] < 100_000
    assert sizes[40] / sizes[16] < (41 / 17) ** 3
    dots = workdir / "dots"
    assert main(["render", "--report", str(workdir / "u40.json"), "--out-dir", str(dots)]) == 0
    assert len(list(dots.iterdir())) == 41


def test_missing_file_exit_one(workdir, capsys):
    assert main(["solve", "-f", "nope.expr"]) == 1
    err = capsys.readouterr().err
    obj = json.loads(err)
    assert obj["error"] == "InputError"


def test_bad_budget_exit_one(workdir):
    f = write(workdir / "det.expr", DET)
    assert main(["solve", "-f", f, "--inner-budget", "0"]) == 1


def test_reports_byte_identical(workdir):
    f = write(workdir / "det.expr", DET)
    out1 = str(workdir / "a.json")
    out2 = str(workdir / "b.json")
    main(["solve", "-f", f, "--out", out1])
    main(["solve", "-f", f, "--out", out2])
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_constants_file_and_atom_family(workdir):
    f = write(workdir / "atom.expr", "(V -!> Id) + W + A")
    consts = write_json(
        workdir / "consts.json",
        {"A": {"elements": ["bot", "a"], "leq": [["bot", "a"]], "bottom": "bot"}},
    )
    out = str(workdir / "atom.json")
    code = main(["solve", "-f", f, "--constants", consts, "--out", out,
                 "--inner-budget", "4", "--outer-budget", "3"])
    assert code == 2
    obj = json.loads(open(out).read())
    sizes = [len(obj["posets"][i]["elements"]) for i in obj["params"]]
    assert sizes[0] < sizes[1] < sizes[2]


def test_solve_render_writes_stage_dots(workdir):
    f = write(workdir / "det.expr", DET)
    out = str(workdir / "det.json")
    assert main(["solve", "-f", f, "--out", out, "--render"]) == 0
    assert (workdir / "stage_0_0.dot").exists()
    assert (workdir / "stage_0_1.dot").exists()


def test_terminal_command(workdir):
    f = write(workdir / "us.expr", "Us(Id)")
    out = str(workdir / "us.json")
    assert main(["terminal", "-f", f, "--out", out]) == 0
    obj = json.loads(open(out).read())
    assert obj["row"]["status"]["state"] == "stabilized"
    assert obj["row"]["status"]["at"] == 0


def test_bisim_command_identity_example(workdir):
    values = ["p1", "p2", "p3", "p4"]
    lts = write_json(
        workdir / "out.json",
        {
            "values": values,
            "states": values,
            "behaviour": {p: {"output": p} for p in values},
        },
    )
    out = str(workdir / "rep.json")
    assert main(["bisim", "--lts", lts, "--lts", lts, "--out", out]) == 0
    obj = json.loads(open(out).read())
    assert obj["relation"] == [[p, p] for p in values]


def test_parser_is_built_once_and_keeps_no_state(workdir, monkeypatch):
    built = []

    def counting_build():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    for run, states in enumerate((["s", "t"], ["u", "v", "w"])):
        ltss = [
            write_json(workdir / f"lts{run}{side}.json", {
                "values": ["p"],
                "states": [x + side for x in states],
                "behaviour": {x + side: {"output": "p"} for x in states},
            })
            for side in "ab"
        ]
        out = workdir / f"rep{run}.json"
        assert main(["bisim", "--lts", ltss[0], "--lts", ltss[1], "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["left"] == [x + "a" for x in states]
        assert obj["right"] == [x + "b" for x in states]
    assert len(built) == 1
    cli._parser.cache_clear()


def test_dimmed_and_relation_check(workdir):
    lts = write_json(
        workdir / "two.json",
        {
            "values": ["p", "q"],
            "states": ["x", "y"],
            "behaviour": {"x": {"output": "p"}, "y": {"output": "q"}},
        },
    )
    approx = write_json(workdir / "total.json", [["p", "q"]])
    rel_good = write_json(workdir / "good.json", [["x", "y"]])
    rel_bad = write_json(workdir / "bad.json", [["x", "y"]])
    out = str(workdir / "rep.json")
    assert main(["dimmed", "--lts", lts, "--approx", approx,
                 "--relation", rel_good, "--out", out]) == 0
    ident = write_json(workdir / "ident.json", [["p"], ["q"]])
    assert main(["dimmed", "--lts", lts, "--approx", ident,
                 "--relation", rel_bad, "--out", out]) == 2
    obj = json.loads(open(out).read())
    assert obj["check"]["violation"]["clause"] == "output-match"


def nested_tag(depth):
    """A JSON tag nested `depth` arrays deep."""
    tag = "a"
    for _ in range(depth):
        tag = [tag]
    return tag


LTS = {"values": ["p", "q"], "states": ["x", "y"],
       "behaviour": {"x": {"input": {"p": "y", "q": "x"}}, "y": {"output": "p"}}}
OUT = {"output": "p"}
MALFORMED = {  # id: (file flag, its JSON), in place of the one good file of that flag
    "state-entry-5": ("--lts", {**LTS, "behaviour": {"x": 5, "y": OUT}}),
    "input-5": ("--lts", {**LTS, "behaviour": {"x": {"input": 5}, "y": OUT}}),
    "behaviour-list": ("--lts", {**LTS, "behaviour": [["x", OUT], ["y", OUT]]}),
    "values-5": ("--lts", {**LTS, "values": 5}),
    "input-and-output": ("--lts", {**LTS, "behaviour": {
        "x": {**LTS["behaviour"]["x"], **OUT}, "y": OUT}}),
    "state-list": ("--lts", {**LTS, "states": ["x", ["y"]], "behaviour": {
        "x": {"input": {"p": "['y']", "q": "x"}}, "['y']": OUT}}),
    "state-5": ("--lts", {**LTS, "states": ["x", 5], "behaviour": {
        "x": {"input": {"p": "5", "q": "x"}}, "5": OUT}}),
    "value-1": ("--lts", {**LTS, "values": [1, "q"], "behaviour": {
        "x": {"input": {"1": "y", "q": "x"}}, "y": {"output": 1}}}),
    "successor-5": ("--lts", {**LTS, "states": ["x", "5"], "behaviour": {
        "x": {"input": {"p": 5, "q": "x"}}, "5": OUT}}),
    "output-1": ("--lts", {**LTS, "behaviour": {"x": LTS["behaviour"]["x"], "y": {"output": 1}}}),
    "duplicate-states": ("--lts", {**LTS, "states": ["x", "y", "x"]}),
    "duplicate-values": ("--lts", {**LTS, "values": ["p", "q", "p"]}),
    "behaviour-uncovered": ("--lts", {**LTS, "states": ["x", "y", "z"]}),
    "input-partial": ("--lts", {**LTS, "behaviour": {"x": {"input": {"p": "y"}}, "y": OUT}}),
    "successor-outside": ("--lts", {**LTS, "behaviour": {
        "x": {"input": {"p": "z", "q": "x"}}, "y": OUT}}),
    "output-not-a-value": ("--lts", {**LTS, "behaviour": {
        "x": LTS["behaviour"]["x"], "y": {"output": "r"}}}),
    "pair-of-one": ("--relation", [["x"]]),
    "pair-of-three": ("--relation", [["x", "y", "x"]]),
    "pair-5": ("--relation", [5]),
    "pair-outside": ("--relation", [["x", "z"]]),
    "block-string": ("--approx", ["pq"]),
    "block-5": ("--approx", [5]),
    "leq-pair-of-one": ("--constants", {"A": {"elements": ["a"], "leq": [["a"]]}}),
    "leq-5": ("--constants", {"A": {"elements": ["a"], "leq": 5}}),
    "nested-too-deeply": ("--constants", RawText("[" * 100_000)),  # past the decoder's limit
    "approx-tag-too-deep": ("--approx", [["p", "q"], [nested_tag(P.MAX_TAG_DEPTH + 1)]]),
    "constant-tag-too-deep": ("--constants", {"A": {"elements": [
        nested_tag(P.MAX_TAG_DEPTH + 1)]}}),
}


@pytest.mark.parametrize("flag,content", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_json_input_exits_one_with_an_error_object(workdir, capsys, flag, content):
    if flag == "--constants":
        argv, files = ["terminal", "-f", write(workdir / "w.expr", "W")], {flag: content}
    else:  # the good files alone run `dimmed` without an input error
        argv = ["dimmed"]
        files = {"--lts": LTS, "--approx": [["p", "q"]], "--relation": [["x", "x"]],
                 flag: content}
    for k, (name, obj) in enumerate(files.items()):
        argv += [name, write_json(workdir / f"in{k}.json", obj)]
    assert main(argv + ["--out", str(workdir / "rep.json")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "InputError"


def test_undecodable_text_and_oversized_integers_exit_one_with_an_error_object(
        workdir, capsys):
    # bytes that are not UTF-8, in each kind of input file, and an integer
    # of 5000 digits, past the limit of the Python builds that have one
    bad = str(workdir / "bad.txt")
    with open(bad, "wb") as fh:
        fh.write(b"\xff")
    big = write(workdir / "big.json", '{"A": ' + "9" * 5000 + "}")
    expr, out = write(workdir / "w.expr", "W"), str(workdir / "out.json")
    for argv in (["solve", "-f", bad],
                 ["terminal", "-f", expr, "--constants", bad],
                 ["bisim", "--lts", bad],
                 ["render", "--report", bad],
                 ["terminal", "-f", expr, "--constants", big],
                 ["render", "--report", big]):
        assert main(argv + (["--out-dir", str(workdir / "dots")] if argv[0] == "render"
                            else ["--out", out])) == 1, argv
        assert _error_line(capsys)["error"] == "InputError", argv


NESTED = {  # lazy expressions nested n deep, which every command takes
    "lifts": lambda n: "Lift(" * n + "Id" + ")" * n,
    "sums": lambda n: "Lift(" + " + ".join(["Id"] * n) + ")",  # n - 1 sums under a Lift
    "parentheses": lambda n: "Lift(" + "(" * (n - 1) + "Id" + ")" * (n - 1) + ")",
}


@pytest.mark.parametrize("shape", NESTED.values(), ids=list(NESTED))
def test_expressions_run_at_the_nesting_bound_and_exit_one_past_it(workdir, capsys, shape):
    bound = F.MAX_EXPR_DEPTH
    for command, code in (("terminal", 2), ("solve", 2), ("mediator", 0)):
        argv = [command, "--out", str(workdir / "rep.json"), "-f"]
        assert main(argv + [write(workdir / "ok.expr", shape(bound))]) == code, command
        assert main(argv + [write(workdir / "deep.expr", shape(bound + 1))]) == 1, command
        assert _error_line(capsys) == {"error": "ExprSyntaxError",
                                       "message": f"expression nested more than {bound} deep"}


def _error_line(capsys):
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return json.loads(err)


def test_an_output_that_cannot_be_written_exits_one(workdir, capsys):
    f = write(workdir / "w.expr", "W")
    missing = workdir / "no-such-dir" / "x.json"
    assert main(["terminal", "-f", f, "--out", str(missing)]) == 1
    assert _error_line(capsys)["error"] == "InputError"
    report = str(workdir / "rep.json")
    assert main(["terminal", "-f", f, "--out", report]) == 0
    blocker = write(workdir / "a-file", "")
    assert main(["render", "--report", report, "--out-dir", blocker]) == 1
    obj = _error_line(capsys)
    assert obj["error"] == "InputError" and "DOT bundle" in obj["message"]


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_check_laws_refuses_fewer_than_one_sample(capsys, samples):
    assert main(["check-laws", "--samples", samples]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {"error": "InputError",
                                   "message": "--samples must be at least 1"}


@pytest.mark.parametrize("command,approx", [
    ("dimmed", [["p", "q"], []]),
    ("quotient", [[]]),
    ("dimmed", [["p"]]),  # does not cover the values
    ("quotient", [["p", "q", "zz"]]),  # covers more than the values
    ("quotient", [["p"], ["q"], ["zz"]]),
    ("lemma1", [["p", "q", "zz"]]),
    ("lemma1", [["p"], ["q"], ["zz"]]),
], ids=["dimmed-empty-block", "quotient-empty-block", "dimmed-uncovered", "quotient-extra",
        "quotient-extra-block", "lemma1-extra", "lemma1-extra-block"])
def test_an_approx_that_is_no_partition_exits_one(workdir, capsys, command, approx):
    argv = [command, "--lts", write_json(workdir / "lts.json", LTS),
            "--approx", write_json(workdir / "approx.json", approx)]
    if command == "quotient":
        argv += ["--relation", write_json(workdir / "rel.json", [["x", "x"], ["y", "y"]])]
    if command == "lemma1":
        argv += ["--exhaustive"]
    assert main(argv + ["--out", str(workdir / "rep.json")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "NotEquivalence"


@pytest.mark.parametrize("command", ["quotient", "lemma1"])
def test_one_system_commands_refuse_a_second_lts(workdir, capsys, command):
    lts = write_json(workdir / "lts.json", LTS)
    argv = [command, "--lts", lts, "--approx", write_json(workdir / "approx.json", [["p"], ["q"]])]
    if command == "quotient":
        argv += ["--relation", write_json(workdir / "rel.json", [["x", "x"], ["y", "y"]])]
    argv += ["--out", str(workdir / "rep.json")]
    assert main(argv) == 0
    assert main(argv + ["--lts", lts]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "InputError"


def stage_sizes(rep):
    if rep["kind"] == "terminal-report":
        return rep["row"]["sizes"]
    return [c["size_pointed"] for c in rep["stage_comparisons"]]


@pytest.mark.parametrize("command,expr,sizes", [
    ("terminal", "W", [1, 3, 3]),
    ("mediator", "Lift((V -> Id) + W)", [1, 5, 15, 63]),  # 1 + 1 + |W|, then |V| = 2
])
def test_parameters_name_constants(workdir, capsys, command, expr, sizes):
    consts = write_json(workdir / "consts.json", {
        "A": {"elements": ["b", "a"], "leq": [["b", "a"]], "bottom": "b"},
        "B": {"elements": ["b", "a", "c"], "leq": [["b", "a"], ["b", "c"]], "bottom": "b"},
    })
    argv = [command, "-f", write(workdir / "in.expr", expr), "--constants", consts,
            "--inner-budget", "3", "--out", str(workdir / "rep.json")]
    assert main(argv + ["--v", "A", "--w", "B"]) == 0
    assert stage_sizes(json.loads((workdir / "rep.json").read_text())) == sizes
    for flag in ("--v", "--w"):
        assert main(argv + [flag, "Z"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "InputError", "message": f"{flag} names unknown constant 'Z'"}


def test_lemma1_command_exhaustive(workdir):
    lts = write_json(
        workdir / "tiny.json",
        {
            "values": ["p", "q"],
            "states": ["x", "y"],
            "behaviour": {
                "x": {"input": {"p": "x", "q": "y"}},
                "y": {"output": "q"},
            },
        },
    )
    approx = write_json(workdir / "eq.json", [["p", "q"]])
    assert main(["lemma1", "--lts", lts, "--approx", approx, "--exhaustive"]) == 0
    assert main(["lemma1", "--lts", lts, "--approx", approx]) == 0


def test_quotient_command(workdir):
    values = ["p", "q"]
    lts = write_json(
        workdir / "two.json",
        {
            "values": values,
            "states": ["x", "y"],
            "behaviour": {"x": {"output": "p"}, "y": {"output": "q"}},
        },
    )
    approx = write_json(workdir / "total.json", [values])
    rel = write_json(
        workdir / "rel.json", [["x", "x"], ["x", "y"], ["y", "x"], ["y", "y"]]
    )
    out = str(workdir / "q.json")
    assert main(["quotient", "--lts", lts, "--approx", approx,
                 "--relation", rel, "--out", out]) == 0
    obj = json.loads(open(out).read())
    assert len(obj["coalgebra"]["carrier"]) == 1


def test_mediator_command_and_render(workdir):
    f = write(workdir / "lazy.expr", "Lift((V -> Id) + W)")
    out = str(workdir / "m.json")
    assert main(["mediator", "-f", f, "--inner-budget", "4", "--out", out,
                 "--render"]) == 0
    assert (workdir / "stage_0_0.dot").exists()
    assert (workdir / "stage_1_0.dot").exists()
    obj = json.loads(open(out).read())
    assert obj["status"] == "agree"
    # render from the saved report into a separate directory
    assert main(["render", "--report", out, "--out-dir", str(workdir / "dots")]) == 0
    assert (workdir / "dots" / "stage_0_1.dot").exists()


@pytest.fixture(scope="module")
def laws_run(tmp_path_factory):
    """One `check-laws` run shared by the module: exit code, transcript and
    the report it wrote."""
    out = tmp_path_factory.mktemp("laws") / "laws.json"
    transcript = io.StringIO()
    with contextlib.redirect_stdout(transcript):
        code = main(["check-laws", "--seed", "42", "--samples", "5", "--out", str(out)])
    return code, transcript.getvalue(), json.loads(out.read_text(encoding="utf-8"))


def test_check_laws_fast(laws_run):
    code, transcript, obj = laws_run
    assert code == 0
    assert "functor-ep-laws" in transcript
    assert obj["ok"] is True


def test_check_laws_transcript_pins_the_oracle_suites(laws_run):
    # what the brute-force and uniqueness suites cover at the default sizes
    lines = laws_run[1].splitlines()
    assert ("ok   enumeration-counts: posets<= 5: 88 upset counts, 7744 monotone counts, "
            "625 strict counts all match brute force") in lines
    assert "ok   coinductive-uniqueness: 963 coalgebras (<= 4 states): unique morphisms" in lines


def test_check_laws_transcript_deterministic(laws_run, workdir, capsys):
    main(["check-laws", "--seed", "42", "--samples", "5"])
    assert capsys.readouterr().out == laws_run[1]


def test_parser_defaults_come_from_the_engine():
    parser = build_parser()
    for argv in (["solve", "-f", "x"], ["terminal", "-f", "x"], ["mediator", "-f", "x"]):
        args = parser.parse_args(argv)
        assert args.inner_budget == E.DEFAULT_INNER_BUDGET
        assert args.element_cap == P.DEFAULT_ELEMENT_CAP
        assert not hasattr(args, "seed")
    assert parser.parse_args(["solve", "-f", "x"]).outer_budget == E.DEFAULT_OUTER_BUDGET
