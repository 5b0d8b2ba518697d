"""Differential run of `kernels.enum_monotone_tables` against another
checkout's, on the calls a benchmark pass makes and on the law walk.

    git archive <commit> src | tar -x -C /tmp/parent
    PYTHONPATH=src python tests/differential_tables.py /tmp/parent/src --seed 1 --walk 5

It records every call of one seed's job list of each benchmark workload
(`perfbench/workloads.py`), then replays each call through both
enumerators, and does the same for every pair of posets up to `--walk`
elements, plain and strict (the pairs of `laws.law_enumeration_counts`).
Rows, order, dtype and shape must be equal.  It prints the number of
calls, the mismatches and the CPU seconds of each side on the walk, best
of `--repeat` alternated runs.  Exit status 1 on a mismatch."""

import argparse
import importlib
import importlib.util
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from nufix import kernels
from nufix.posets import all_posets_upto, with_declared_bottom

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_other(src):
    """The `nufix.kernels` of the checkout whose `src` directory is given,
    imported as the package `nufix_other`."""
    init = os.path.join(src, "nufix", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        "nufix_other", init, submodule_search_locations=[os.path.dirname(init)])
    sys.modules["nufix_other"] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return importlib.import_module("nufix_other.kernels")


def workload_calls(name, seed):
    """(leq_dom, leq_cod, limit, strict) of every call in one pass of the
    workload's job list for `seed`."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    calls, enumerate_tables = [], kernels.enum_monotone_tables

    def recording(leq_dom, leq_cod, limit, strict=None):
        calls.append((np.array(leq_dom, dtype=np.bool_), np.array(leq_cod, dtype=np.bool_),
                      int(limit), strict))
        return enumerate_tables(leq_dom, leq_cod, limit, strict)

    work = tempfile.mkdtemp()
    kernels.enum_monotone_tables = recording
    try:
        pools = workloads.load_expected(os.path.join(ROOT, "perfbench", "expected.json"))["pools"]
        for job in workloads.build(name, seed, work, pools[name]).jobs:
            job.run()
    finally:
        kernels.enum_monotone_tables = enumerate_tables
        shutil.rmtree(work, ignore_errors=True)
    return calls


def walk_calls(max_elems):
    shapes = all_posets_upto(max_elems)
    pointed = [p for p in map(with_declared_bottom, shapes) if p is not None]
    calls = [(p.leq, q.leq, max(1, len(q)) ** max(1, len(p)) + 1, None)
             for p in shapes for q in shapes]
    calls += [(p.leq, q.leq, max(1, len(q)) ** max(1, len(p)) + 1, (p.bottom_idx, q.bottom_idx))
              for p in pointed for q in pointed]
    return calls


def mismatches(calls, other):
    bad = 0
    for leq_dom, leq_cod, limit, strict in calls:
        a = kernels.enum_monotone_tables(leq_dom, leq_cod, limit, strict)
        b = other.enum_monotone_tables(leq_dom, leq_cod, limit, strict)
        bad += not (a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b))
    return bad


def cpu_seconds(calls, enumerate_tables):
    t0 = time.process_time()
    for leq_dom, leq_cod, limit, strict in calls:
        enumerate_tables(leq_dom, leq_cod, limit, strict)
    return time.process_time() - t0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", help="the src directory of the checkout to compare with")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--walk", type=int, default=5, help="largest poset of the law walk")
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    other = load_other(args.other_src)
    bad = 0
    for name in ("tower", "enum", "bisim"):
        calls = workload_calls(name, args.seed)
        wrong = mismatches(calls, other)
        print(f"{name} seed {args.seed}: {len(calls)} calls, {wrong} mismatches")
        bad += wrong
    calls = walk_calls(args.walk)
    wrong = mismatches(calls, other)
    print(f"law walk up to {args.walk} elements: {len(calls)} calls, {wrong} mismatches")
    bad += wrong
    here, there = [], []
    for r in range(args.repeat):
        sides = [(here, kernels), (there, other)]
        for times, module in sides if r % 2 else sides[::-1]:
            times.append(cpu_seconds(calls, module.enum_monotone_tables))
    print(f"law walk CPU s, best of {args.repeat}: this {min(here):.3f}, other {min(there):.3f}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
