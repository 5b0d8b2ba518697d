"""Command-line front end.

Exit codes: 0 for solved/stabilized/agreeing/passing outcomes, 2 for
truncated or failing outcomes, 1 for input errors (with a machine-readable
error object on standard error).  Identical inputs and flags produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import bisim as bisim_mod
from . import laws as laws_mod
from . import mediator as mediator_mod
from . import serialize
from .engine import (
    DEFAULT_INNER_BUDGET,
    DEFAULT_OUTER_BUDGET,
    solve_hob,
    terminal_sequence,
)
from .errors import InputError, NufixError
from .functors import Backend, instantiate, parse as parse_expr
from .posets import DEFAULT_ELEMENT_CAP, poset_from_json, tag_pairs_from_json, tag_to_json, unit

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TRUNCATED = 2


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_json(path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_constants(path):
    if path is None:
        return {}
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise InputError("constants file must map names to poset objects")
    return {name: poset_from_json(p) for name, p in obj.items()}


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(obj, out_path):
    text = serialize.dumps(obj)
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        _write_text(out_path, text)
    except OSError as exc:
        raise InputError(f"cannot write {out_path}: {exc}") from exc


def _emit_dots(report_obj, out_path, out_dir=None):
    directory = out_dir or (os.path.dirname(os.path.abspath(out_path)) if out_path else ".")
    bundle = serialize.dot_bundle(report_obj)
    try:
        os.makedirs(directory, exist_ok=True)
        for name, dot in sorted(bundle.items()):
            _write_text(os.path.join(directory, name), dot)
    except OSError as exc:
        raise InputError(f"cannot write the DOT bundle to {directory}: {exc}") from exc


def _param(constants, name, what):
    if name is None:
        return unit()
    if name not in constants:
        raise InputError(f"{what} names unknown constant {name!r}")
    return constants[name]


def _check_budgets(args):
    for attr in ("inner_budget", "outer_budget", "element_cap", "samples"):
        if getattr(args, attr, None) is not None and getattr(args, attr) < 1:
            raise InputError(f"--{attr.replace('_', '-')} must be at least 1")


# --------------------------------------------------------------------------
# commands


def cmd_solve(args):
    _check_budgets(args)
    constants = _load_constants(args.constants)
    expr_text = _read_text(args.functor).strip()
    report = solve_hob(
        expr_text,
        constants=constants,
        inner_budget=args.inner_budget,
        outer_budget=args.outer_budget,
        element_cap=args.element_cap,
    )
    obj = serialize.solution_report_json(report)
    _emit(obj, args.out)
    if args.render:
        _emit_dots(obj, args.out)
    return EXIT_OK if report.solved else EXIT_TRUNCATED


def cmd_terminal(args):
    _check_budgets(args)
    constants = _load_constants(args.constants)
    expr_text = _read_text(args.functor).strip()
    expr = parse_expr(expr_text, constants)
    v = _param(constants, args.v, "--v")
    w = _param(constants, args.w, "--w")
    inst = instantiate(expr, Backend.POINTED_STRICT, v, w, args.element_cap)
    seq = terminal_sequence(inst, args.inner_budget)
    obj = serialize.terminal_report_json(seq, expr_text, args.inner_budget)
    _emit(obj, args.out)
    if args.render:
        _emit_dots(obj, args.out)
    return EXIT_OK if seq.status.stabilized else EXIT_TRUNCATED


def _load_ltss(args, most=2):
    """The systems of the --lts files, the one file read as both sides."""
    if not args.lts:
        raise InputError("at least one --lts file is required")
    if len(args.lts) > most:
        raise InputError(f"{args.command} takes at most {most} --lts files")
    specs = [bisim_mod.lts_from_json(_read_json(path)) for path in args.lts]
    return specs[0], specs[-1]


def _relation_check(lts1, lts2, relation_path, approx):
    if relation_path is None:
        return None
    pairs = tag_pairs_from_json(_read_json(relation_path), "relation JSON")
    violation = bisim_mod.is_game_bisim(lts1, lts2, pairs, approx)
    if violation is None:
        return {"relation_is_bisimulation": True, "violation": None}
    (pair, clause) = violation
    return {
        "relation_is_bisimulation": False,
        "violation": {"pair": [pair[0], pair[1]], "clause": clause},
    }


def cmd_bisim(args):
    """`bisim`, or `dimmed` (the game up to the --approx value classes)."""
    lts1, lts2 = _load_ltss(args)
    obj = {"kind": f"{args.command}-report"}
    if args.command == "dimmed":
        approx = bisim_mod.equivalence_from_json(_read_json(args.approx))
        greatest = bisim_mod.dimmed_bisim(lts1, lts2, approx)
        obj["approx"] = approx.to_json()
    else:
        approx, greatest = None, bisim_mod.value_bisim(lts1, lts2)
    obj.update({
        "left": list(lts1.states),
        "right": list(lts2.states),
        "relation": greatest.to_json(),
        "is_equivalence": greatest.is_equivalence,
        "check": _relation_check(lts1, lts2, args.relation, approx),
    })
    _emit(obj, args.out)
    if obj["check"] is not None and not obj["check"]["relation_is_bisimulation"]:
        return EXIT_TRUNCATED
    return EXIT_OK


def cmd_quotient(args):
    lts1, _ = _load_ltss(args, most=1)
    approx = bisim_mod.equivalence_from_json(_read_json(args.approx))
    rel = bisim_mod.relation_from_json(
        _read_json(args.relation), lts1.states, lts1.states
    )
    coalg = bisim_mod.quotient(lts1, rel, approx)
    structure = [
        [tag_to_json(state), tag_to_json(coalg.as_map()(state))]
        for state in coalg.carrier.elements
    ]
    obj = {
        "kind": "quotient-report",
        "value_classes": approx.to_json(),
        "state_classes": [
            [tag_to_json(x) for x in tag[1]] for tag in coalg.carrier.elements
        ],
        "coalgebra": {
            "carrier": [tag_to_json(e) for e in coalg.carrier.elements],
            "structure": structure,
        },
    }
    _emit(obj, args.out)
    return EXIT_OK


def cmd_lemma1(args):
    lts1, _ = _load_ltss(args, most=1)
    approx = bisim_mod.equivalence_from_json(_read_json(args.approx))
    if args.exhaustive:
        ok, counterexample = bisim_mod.lemma1_check(lts1, approx)
        mode = "exhaustive"
    else:
        # spot-check the canonical relations only
        coalg = bisim_mod.lts_to_coalgebra(lts1)
        param_rel = approx.as_pairs()
        ok, counterexample = True, None
        greatest = bisim_mod.dimmed_bisim(lts1, lts1, approx)
        for pairs in (frozenset((x, x) for x in lts1.states), greatest.pairs):
            game = bisim_mod.is_game_bisim(lts1, lts1, pairs, approx) is None
            lifted = bisim_mod.is_lifting_bisim(coalg, coalg, pairs, param_rel)
            if game != lifted:
                ok, counterexample = False, pairs
                break
        mode = "canonical"
    obj = {
        "kind": "lemma1-report",
        "mode": mode,
        "ok": ok,
        "counterexample": sorted(map(list, counterexample)) if counterexample else None,
    }
    _emit(obj, args.out)
    return EXIT_OK if ok else EXIT_TRUNCATED


def cmd_mediator(args):
    _check_budgets(args)
    constants = _load_constants(args.constants)
    expr_text = _read_text(args.functor).strip()
    v = _param(constants, args.v, "--v")
    w = _param(constants, args.w, "--w")
    report = mediator_mod.solve_lifted(
        expr_text, v, w, constants=constants,
        inner_budget=args.inner_budget, element_cap=args.element_cap,
    )
    obj = serialize.mediator_report_json(report)
    _emit(obj, args.out)
    if args.render:
        _emit_dots(obj, args.out)
    return EXIT_OK if report.ok else EXIT_TRUNCATED


def cmd_check_laws(args):
    _check_budgets(args)
    results = laws_mod.run_all(seed=args.seed, samples=args.samples)
    lines = [r.line() for r in results]
    for line in lines:
        print(line)
    ok = all(r.ok for r in results)
    if args.out:
        obj = {
            "kind": "laws-report",
            "seed": args.seed,
            "samples": args.samples,
            "ok": ok,
            "results": [
                {
                    "name": r.name,
                    "ok": r.ok,
                    "detail": r.detail,
                    "counterexample": r.counterexample,
                }
                for r in results
            ],
        }
        _emit(obj, args.out)
    return EXIT_OK if ok else EXIT_TRUNCATED


def cmd_render(args):
    obj = _read_json(args.report)
    _emit_dots(obj, None, out_dir=args.out_dir)  # dot_bundle re-validates the report
    return EXIT_OK


# --------------------------------------------------------------------------
# argument wiring


def _add_common(p, outer=False):
    p.add_argument("--inner-budget", type=int, default=DEFAULT_INNER_BUDGET,
                   dest="inner_budget")
    if outer:
        p.add_argument("--outer-budget", type=int, default=DEFAULT_OUTER_BUDGET,
                       dest="outer_budget")
    p.add_argument("--element-cap", type=int, default=DEFAULT_ELEMENT_CAP,
                   dest="element_cap")
    p.add_argument("--out", default=None)
    p.add_argument("--render", action="store_true")


def build_parser():
    top = argparse.ArgumentParser(
        prog="nufix",
        description="Finite-poset workbench: behaviour-functor fixed points, "
        "final coalgebras, bisimulations.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve Z ~ |nu F(Z,Z)| by the outer iteration")
    p.add_argument("--functor", "-f", required=True)
    p.add_argument("--constants", default=None)
    _add_common(p, outer=True)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("terminal", help="inner terminal sequence of an instance")
    p.add_argument("--functor", "-f", required=True)
    p.add_argument("--constants", default=None)
    p.add_argument("--v", default=None)
    p.add_argument("--w", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_terminal)

    p = sub.add_parser("bisim", help="greatest value-passing bisimulation")
    p.add_argument("--lts", action="append", default=[])
    p.add_argument("--relation", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_bisim)

    p = sub.add_parser("dimmed", help="greatest bisimulation up to a value equivalence")
    p.add_argument("--lts", action="append", default=[])
    p.add_argument("--approx", required=True)
    p.add_argument("--relation", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_bisim)

    p = sub.add_parser("quotient", help="quotient coalgebra over value classes")
    p.add_argument("--lts", action="append", default=[])
    p.add_argument("--approx", required=True)
    p.add_argument("--relation", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser("lemma1", help="game predicate vs lifting predicate")
    p.add_argument("--lts", action="append", default=[])
    p.add_argument("--approx", required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_lemma1)

    p = sub.add_parser("mediator", help="two-backend comparison for lazy families")
    p.add_argument("--functor", "-f", required=True)
    p.add_argument("--constants", default=None)
    p.add_argument("--v", default=None)
    p.add_argument("--w", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_mediator)

    p = sub.add_parser("check-laws", help="run the seeded property suites")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_check_laws)

    p = sub.add_parser("render", help="emit the DOT bundle of a saved report")
    p.add_argument("--report", required=True)
    p.add_argument("--out-dir", default=".", dest="out_dir")
    p.set_defaults(fn=cmd_render)

    return top


@functools.cache
def _parser():
    """The process's one parser: parsing leaves it unchanged (`append`
    actions copy their default list), and building it costs about 2 ms."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except NufixError as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
