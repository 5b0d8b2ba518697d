"""Span coverage of the traced run, and its absence from the untraced one.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import inspect
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import nufix  # noqa: E402
from nufix import bisim, cli, engine, functors, laws, mediator, posets  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _nufix_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "nufix" or name.startswith("nufix."))]


def installed_spans():
    """Every span wrapper reachable from a nufix module or class."""
    found = []
    for mod in _nufix_modules():
        for name, val in vars(mod).items():
            if hasattr(val, "__perfbench_span__"):
                found.append(f"{mod.__name__}.{name}")
            if inspect.isclass(val):
                for attr, meth in vars(val).items():
                    fn = getattr(meth, "__func__", meth)
                    if hasattr(fn, "__perfbench_span__"):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found


@pytest.fixture
def tracer():
    t = spans.Tracer().install()
    yield t
    t.uninstall()
    assert installed_spans() == []


def test_no_wrapper_without_tracing():
    assert installed_spans() == []


def test_every_copy_of_a_public_function_is_rebound(tracer):
    layer_of = {"nufix." + layer: layer for layer in spans.LAYERS}
    for mod in _nufix_modules():
        for name, val in vars(mod).items():
            layer = layer_of.get(getattr(val, "__module__", None))
            if layer is None or not inspect.isfunction(val) or name.startswith("_"):
                continue
            if val.__name__ in spans.UNWRAPPED.get(layer, ()):
                continue
            # modules import posets, functors and engine functions by name;
            # every such copy must be the wrapper, not the original
            assert hasattr(val, "__perfbench_span__"), f"{mod.__name__}.{name}"


def test_index_stays_unwrapped(tracer):
    assert not hasattr(posets.FinPoset.index, "__perfbench_span__")
    assert hasattr(posets.FinPoset.__init__, "__perfbench_span__")


def test_calls_through_each_consumer_path_are_recorded(tracer, tmp_path):
    one = nufix.unit()
    flat = nufix.lift(nufix.discrete(["a"]))
    # kernels through posets' module attribute; posets through the package
    nufix.upsets(posets.chain(3))
    assert tracer.calls["kernels.enum_upsets"] == 1
    assert tracer.calls["posets.upsets"] == 1
    # posets imported by name into functors; FunctorInstance methods
    inst = functors.instantiate("(V -!> Id) + W", functors.Backend.POINTED_STRICT, flat, flat)
    inst.on_object(flat)
    assert tracer.calls["posets.coalesced_sum"] >= 1
    assert tracer.calls["posets.strict_fun_space"] >= 1
    inst.on_ep(posets.identity_ep(flat))
    assert tracer.calls["functors.FunctorInstance.on_ep"] == 1
    lazy = functors.instantiate("Lift(W)", functors.Backend.POINTED_STRICT, flat, flat)
    lazy.on_map(posets.identity(flat))
    assert tracer.calls["functors.FunctorInstance.on_map"] == 1
    # engine through the package, Reindex.component through the outer solver
    engine.solve_hob("(V -!> Id) + W + A", constants={"A": flat}, outer_budget=3)
    assert tracer.calls["functors.Reindex.component"] >= 1
    assert tracer.calls["engine.nu_on_transformation"] >= 1
    # engine imported by name into mediator and laws
    seqs = tracer.calls["engine.terminal_sequence"]
    mediator.solve_lifted("Lift((V -> Id) + W)", one, one, inner_budget=3)
    assert tracer.calls["engine.terminal_sequence"] == seqs + 1
    assert tracer.calls["mediator.adjunction_check"] >= 1
    laws.law_limit_colimit()
    assert tracer.calls["laws.law_limit_colimit"] == 1
    assert tracer.calls["engine.check_limit_colimit"] >= 1
    # bisim through the package, relation lifting through functors
    lts = bisim.LtsSpec(["p"], ["x"], {"x": (bisim.INPUT, {"p": "x"})})
    c = bisim.lts_to_coalgebra(lts)
    nufix.coalg_bisim(c, c)
    assert tracer.calls["bisim.coalg_bisim"] == 1
    assert tracer.calls["functors.lifted_related"] >= 1
    # serialize and cli through the command line
    expr = tmp_path / "det.expr"
    expr.write_text("(V -!> Id) + W\n")
    report = tmp_path / "det.json"
    assert cli.main(["solve", "-f", str(expr), "--out", str(report)]) == 0
    assert cli.main(["render", "--report", str(report), "--out-dir", str(tmp_path)]) == 0
    assert tracer.calls["cli.main"] == 2
    assert tracer.calls["serialize.dumps"] == 1
    assert tracer.calls["serialize.load_report"] == 1
    assert tracer.counts["serialize.bytes"] == report.stat().st_size
    assert tracer.stack == []


def test_self_times_sum_within_wall(tracer):
    flat = nufix.lift(nufix.discrete(["a"]))
    tracer.reset()
    t0 = run.time.perf_counter()
    nufix.solve_hob("(V -!> Id) + W + A", constants={"A": flat}, outer_budget=3)
    wall = run.time.perf_counter() - t0
    # solve_hob is the only top-level span, so the self times of all spans
    # partition its duration, which lies inside the wall time
    total = sum(tracer.self_s.values())
    assert 0 < tracer.self_s["engine.solve_hob"] < total <= wall
    assert tracer.layer_self_s("posets") > 0 and tracer.layer_self_s("functors") > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_each_job_family_records_spans(name, tmp_path, tracer):
    expected = workloads.load_expected(run.EXPECTED)
    wl = workloads.build(name, 0, str(tmp_path), expected["pools"][name])
    smallest = {}
    for job in wl.jobs:
        if job.family != "render" and job.size <= smallest.get(job.family, job).size:
            smallest[job.family] = job
    for job in smallest.values():
        before = sum(tracer.calls.values())
        job.run()
        assert sum(tracer.calls.values()) > before, job.key


def test_untraced_passes_install_nothing():
    seen = []
    job = workloads.Job("probe", "probe", 1, lambda: seen.append(installed_spans()),
                        lambda outcome: {})
    wl = workloads.Workload("probe", [job])
    checker = run.Checker({"probe": workloads.digest({})})
    plain, traced = run.measure(wl, checker, 0)
    assert seen == [[]] and traced == []
    assert plain[0][1][0][2]


def test_checker_counts_mismatch_exit1_and_exceptions(tmp_path):
    def job(key, run_fn, summary):
        return workloads.Job(key, "probe", 1, run_fn, lambda outcome: summary)

    def recurse():
        raise RecursionError("maximum recursion depth exceeded")

    jobs = [
        job("ok", lambda: 0, {"exit": 0}),
        job("truncated", lambda: 2, {"exit": 2}),
        job("mismatch", lambda: 0, {"exit": 0, "n": 3}),
        job("exit1", lambda: 1, {"exit": 1}),
        job("recursion", recurse, {}),
    ]
    expected = {j.key: workloads.digest(j.summarize(None)) for j in jobs}
    expected["mismatch"] = workloads.digest({"exit": 0, "n": 4})
    checker = run.Checker(expected)
    wall, rows = run.run_pass(jobs, checker)
    assert [ok for _, _, ok in rows] == [True, True, False, False, False]
    assert [key for key, _ in checker.failures] == ["mismatch", "exit1", "recursion"]
