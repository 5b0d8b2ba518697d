"""Seeded job lists for the three workloads, and how each job is checked.

A workload is a fixed mix of job classes.  Each class has a fixed count per
pass and a finite list of variants; the harness seed only decides which
variant fills each slot and the order of the jobs.  So every seed gives the
same size mix, a second seed gives a different job list, and every job that
any seed can produce has an entry in `expected.json`, which
`run.py --regen-expected` writes from the program as it stands.

Random structures (posets, value-passing systems) are drawn from a
`random.Random` seeded with the variant's own key, never from the harness
seed, so a variant names the same input on every run.  The program receives
only the generated files (CLI jobs) and values built from them through its
public constructors (library jobs).

Job classes keep their variants close in cost (same cap, same budget, same
size band), so that the per-pass wall time and the latency quantiles do not
depend on which variants a seed happened to draw.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time
from dataclasses import dataclass

import nufix
from nufix import bisim as nbisim
from nufix import cli as ncli
from nufix import laws as nlaws
from nufix.errors import ElementCapExceeded

WORKLOADS = ("tower", "enum", "bisim")

HOCCS = "Us(C * W * Id + C * (V -> Id) + Id)"
DET = "(V -!> Id) + W"
ATOM = "(V -!> Id) + W + A"
LAZY = "Lift((V -> Id) + W)"
STABILIZING = (
    "Us(Id)",
    "(V -!> Id) + W",
    "Lift(W)",
    "(V -!> Id) + W + Us(Id)",
    "(V -!> Id) + W + Lift(W)",
    "Us(Id * Id)",
)
FLAT2 = {"elements": ["b", "a"], "leq": [["b", "a"]], "bottom": "b"}


@dataclass
class Job:
    """One call into a public entry point.

    `run` is the timed call and returns a raw outcome; `summarize` turns the
    outcome into the semantic summary whose digest is checked (untimed).
    `family` and `size` place the job on a growth curve.
    """

    key: str
    family: str
    size: int
    run: object
    summarize: object
    report: str | None = None  # report file a CLI job writes, if any


@dataclass
class Workload:
    name: str
    jobs: list


def digest(summary):
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# --------------------------------------------------------------------------
# input generators (pure Python, seeded by the variant key)


def _rng(key):
    return random.Random(key)


def random_poset_data(rng, n, density, pointed=False):
    """A random order on n elements: a random linear extension plus each
    compatible pair with probability `density` (closure is the program's)."""
    names = [f"e{i}" for i in range(n)]
    perm = names[:]
    rng.shuffle(perm)
    pairs = [
        [perm[i], perm[j]]
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    if pointed:
        pairs = [["bot", e] for e in names] + pairs
        return {"elements": ["bot"] + names, "leq": pairs, "bottom": "bot"}
    return {"elements": names, "leq": pairs, "bottom": None}


def covers(data):
    """Hasse covers of the order generated by `data["leq"]`."""
    up = {e: set() for e in data["elements"]}
    for a, b in data["leq"]:
        up[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in up:
            reach = set().union(*(up[b] for b in up[a])) if up[a] else set()
            if not reach <= up[a]:
                up[a] |= reach
                changed = True
    return [
        [a, b]
        for a in data["elements"]
        for b in sorted(up[a])
        if b != a and not any(b in up[c] for c in up[a] if c != b)
    ]


def relabel_data(rng, data, perturb=False):
    """An isomorphic copy with shuffled element order and fresh names; with
    `perturb`, one cover is dropped, which changes the number of comparable
    pairs and so the isomorphism class."""
    elements = data["elements"][:]
    rng.shuffle(elements)
    rename = {e: f"x{i}" for i, e in enumerate(elements)}
    pairs = [[rename[a], rename[b]] for a, b in covers(data)]
    if perturb and pairs:
        pairs.pop(rng.randrange(len(pairs)))
    return {"elements": [rename[e] for e in elements], "leq": pairs, "bottom": None}


def random_lts_data(rng, n, k, classes=None, p_input=0.6):
    """A value-passing system on n states over k values.  With `classes`
    (a value partition), input tables are constant on each class, so the
    greatest dimmed self-bisimulation is an equivalence."""
    values = [f"v{i}" for i in range(k)]
    states = [f"s{i}" for i in range(n)]
    behaviour = {}
    for s in states:
        if rng.random() < p_input:
            if classes is None:
                behaviour[s] = {"input": {v: rng.choice(states) for v in values}}
            else:
                table = {}
                for block in classes:
                    target = rng.choice(states)
                    table.update({v: target for v in block})
                behaviour[s] = {"input": table}
        else:
            behaviour[s] = {"output": rng.choice(values)}
    return {"values": values, "states": states, "behaviour": behaviour}


def random_partition(rng, values, max_blocks=None):
    blocks = {}
    nblocks = rng.randint(1, min(len(values), max_blocks or len(values)))
    for v in values:
        blocks.setdefault(rng.randrange(nblocks), []).append(v)
    return [blocks[b] for b in sorted(blocks)]


def greatest_dimmed_self_bisim(lts, classes):
    """Coarsest stable partition by signature refinement (independent of
    the program's game engine).  Valid for class-constant input tables."""
    cls_of = {v: i for i, block in enumerate(classes) for v in block}
    beh = lts["behaviour"]

    def base(s):
        b = beh[s]
        return ("out", cls_of[b["output"]]) if "output" in b else ("in",)

    block = {s: base(s) for s in lts["states"]}
    while True:
        sig = {}
        for s in lts["states"]:
            b = beh[s]
            succ = ()
            if "input" in b:
                succ = tuple(block[b["input"][c[0]]] for c in classes)
            sig[s] = (block[s], succ)
        ids = {}
        new = {s: ids.setdefault(sig[s], len(ids)) for s in lts["states"]}
        if len(ids) == len(set(block.values())):
            break
        block = new
    return [[a, b] for a in lts["states"] for b in lts["states"] if block[a] == block[b]]


# --------------------------------------------------------------------------
# job builders


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(obj, str):
            fh.write(obj)
        else:
            json.dump(obj, fh)
    return path


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _status(obj):
    return [obj["state"], obj["at"], obj["reason"]]


def _seq_status(status):
    return [status.kind, status.at, status.reason]


def _cli_summary(summary_fn, path):
    def summarize(rc):
        out = {"exit": rc}
        if rc != 1 and path is not None:
            out.update(summary_fn(_read_json(path)))
        return out

    return summarize


def _solve_summary(obj):
    sizes = [len(p["elements"]) for p in obj["posets"]]
    final = obj["final"]
    return {
        "status": _status(obj["status"]),
        "exact": obj["exact"],
        "params": [sizes[i] for i in obj["params"]],
        "rows": [[_status(r["status"]), r["sizes"]] for r in obj["rows"]],
        "final": None if final is None else [final["depth"], final["exact"]],
        "witness": obj["witness"] is not None,
    }


def _terminal_summary(obj):
    return {"status": _status(obj["row"]["status"]), "sizes": obj["row"]["sizes"]}


def _mediator_summary(obj):
    return {
        "status": obj["status"],
        "pointed": [_status(obj["pointed"]["status"]), obj["pointed"]["sizes"]],
        "plain": [_status(obj["plain"]["status"]), obj["plain"]["sizes"]],
        "stages": [
            [c["size_pointed"], c["size_plain"], c["iso"] is not None,
             c["projections_agree"]]
            for c in obj["stage_comparisons"]
        ],
    }


def _relation_summary(obj):
    return {"relation": obj["relation"], "is_equivalence": obj["is_equivalence"]}


def _quotient_summary(obj):
    return {
        "classes": obj["state_classes"],
        "structure": obj["coalgebra"]["structure"],
    }


def _lemma1_summary(obj):
    return {"ok": obj["ok"], "counterexample": obj["counterexample"]}


class Builder:
    """Creates jobs and their input files in one work directory."""

    def __init__(self, work):
        self.work = work
        os.makedirs(os.path.join(work, "in"), exist_ok=True)
        os.makedirs(os.path.join(work, "out"), exist_ok=True)

    def _file(self, kind, key, ext):
        name = hashlib.sha1(key.encode()).hexdigest()[:12] + ext
        return os.path.join(self.work, kind, name)

    def text_input(self, key, text):
        return _write(self._file("in", key, ".expr"), text + "\n")

    def json_input(self, key, obj):
        return _write(self._file("in", key, ".json"), obj)

    def out(self, key, ext=".json"):
        return self._file("out", key, ext)

    # -- CLI jobs -------------------------------------------------------

    def cli(self, key, family, size, argv, summary_fn, report=None):
        def run():
            try:
                return ncli.main(argv)
            except SystemExit as exc:  # argparse rejects: an input error
                return exc.code if isinstance(exc.code, int) else 1

        return Job(key, family, size, run, _cli_summary(summary_fn, report), report)

    def cli_solve(self, family, expr, cap, constants=None, name=None):
        key = f"cli-solve:{name or expr}:cap{cap}"
        argv = ["solve", "-f", self.text_input(key, expr), "--element-cap", str(cap)]
        if constants is not None:
            argv += ["--constants", self.json_input(key, constants)]
        out = self.out(key)
        return self.cli(key, family, cap, argv + ["--out", out], _solve_summary, out)

    def cli_terminal(self, family, expr, budget, cap=4096):
        key = f"cli-terminal:{expr}:b{budget}:cap{cap}"
        out = self.out(key)
        argv = ["terminal", "-f", self.text_input(key, expr), "--inner-budget",
                str(budget), "--element-cap", str(cap), "--out", out]
        return self.cli(key, family, budget, argv, _terminal_summary, out)

    def cli_render(self, solve_job):
        key = f"cli-render:{solve_job.key}"
        out_dir = self.out(key, ".dots")

        def run():
            shutil.rmtree(out_dir, ignore_errors=True)
            return ncli.main(["render", "--report", solve_job.report, "--out-dir", out_dir])

        def summarize(rc):
            files = sorted(os.listdir(out_dir)) if rc != 1 else []
            return {"exit": rc, "files": files}

        return Job(key, "render", solve_job.size, run, summarize)

    # -- library jobs ---------------------------------------------------

    def lib(self, key, family, size, call, summary_fn):
        def run():
            try:
                return ("ok", call())
            except ElementCapExceeded:
                return ("truncated", "element-cap")

        def summarize(outcome):
            kind, value = outcome
            if kind == "truncated":
                return {"truncated": value}
            return summary_fn(value)

        return Job(key, family, size, run, summarize)


def _poset(data):
    return nufix.validate_poset(data["elements"], [tuple(p) for p in data["leq"]],
                                data["bottom"])


def _poset_summary(p):
    return {"n": len(p), "pointed": p.is_pointed}


def _seq_summary(seq):
    return {"status": _seq_status(seq.status), "sizes": [len(s) for s in seq.stages]}


def _report_summary(rep):
    return {
        "status": _seq_status(rep.chain.status),
        "params": [len(z) for z in rep.chain.params],
        "rows": [[_seq_status(r.status), [len(s) for s in r.stages]]
                 for r in rep.chain.rows],
        "witness": rep.witness is not None,
    }


def _law_summary(result):
    return {"name": result.name, "ok": result.ok}




# --------------------------------------------------------------------------
# workload mixes


@dataclass
class Mix:
    """A job class: `count` slots per pass, filled from `variants`.

    With a `band`, the variants are only candidates: `--regen-expected`
    admits the first `pool` of them whose checked outcome lies in the band
    and records them in expected.json.  ("n", lo, hi) bounds the element
    count of a completed enumeration; "truncated" asks for a cap truncation.
    Enumeration cost grows with the square of the count, so banding keeps a
    class's variants close in cost and the wall time independent of the
    variants a seed draws.
    """

    name: str
    count: int
    variants: list
    factory: object
    band: object = None
    pool: int = 8


def in_band(summary, band):
    if band == "truncated":
        return "truncated" in summary
    _, lo, hi = band
    return lo <= summary.get("n", -1) <= hi


def _tower_mixes():
    def lib_terminal(b, v):
        def call():
            one = nufix.unit()
            inst = nufix.instantiate("U(Id)", nufix.Backend.POINTED_STRICT, one, one, 4096)
            return nufix.terminal_sequence(inst, v)

        return b.lib(f"lib-terminal:U(Id):b{v}:cap4096", "terminal U(Id) lib", v,
                     call, _seq_summary)

    def lib_hoccs(b, cap):
        key = f"lib-solve:HO-CCS:cap{cap}"
        b.json_input(key, {"C": FLAT2})
        c = _poset(FLAT2)
        return b.lib(key, "solve HO-CCS lib", cap,
                     lambda: nufix.solve_hob(HOCCS, constants={"C": c}, element_cap=cap),
                     _report_summary)

    def cli_stab(b, v):
        expr, budget = v
        return b.cli_terminal("terminal stabilizing cli", expr, budget)

    def cli_uid(b, budget):
        return b.cli_terminal("terminal U(Id) cli", "U(Id)", budget)

    def det(b, cap):
        return b.cli_solve("solve det cli", DET, cap)

    def atom(b, cap):
        return b.cli_solve("solve atom cli", ATOM, cap, {"A": FLAT2})

    def hoccs(b, cap):
        return b.cli_solve("solve HO-CCS cli", HOCCS, cap, {"C": FLAT2}, name="HO-CCS")

    def functor_ep(b, seed):
        return b.lib(f"law:functor_ep:seed{seed}:samples2", "law functor_ep", 2,
                     lambda: nlaws.law_functor_ep(seed, 2), _law_summary)

    def ep_everywhere(b, seed):
        return b.lib(f"law:ep_everywhere:seed{seed}", "law ep_everywhere", 1,
                     lambda: nlaws.law_ep_everywhere(seed), _law_summary)

    def limit_colimit(b, _):
        return b.lib("law:limit_colimit", "law limit_colimit", 1,
                     lambda: nlaws.law_limit_colimit(), _law_summary)

    stab = [[e, 8] for e in STABILIZING] + [["Lift(Id)", 6], ["Lift(Id)", 8]]
    seeds = list(range(16))
    return [
        Mix("lib-terminal-U-tiny", 36, [5, 6], lib_terminal),
        Mix("lib-terminal-U-b8", 4, [8], lib_terminal),
        Mix("lib-terminal-U-b9", 4, [9], lib_terminal),
        Mix("lib-terminal-U-b10", 3, [10], lib_terminal),
        Mix("lib-terminal-U-b11", 1, [11], lib_terminal),
        Mix("lib-solve-hoccs", 1, [2048], lib_hoccs),
        Mix("cli-terminal-stabilizing", 40, stab, cli_stab),
        Mix("cli-terminal-U", 6, [4, 5, 6], cli_uid),
        Mix("cli-solve-det", 8, [512, 1024, 2048, 4096], det),
        Mix("cli-solve-atom-512", 2, [512], atom),
        Mix("cli-solve-atom-4096", 8, [4096], atom),
        Mix("cli-solve-hoccs-512", 1, [512], hoccs),
        Mix("cli-solve-hoccs-1024", 1, [1024], hoccs),
        Mix("law-functor-ep", 2, seeds, functor_ep),
        Mix("law-ep-everywhere", 1, seeds, ep_everywhere),
        Mix("law-limit-colimit", 4, [0], limit_colimit),
    ]


def _enum_mixes():
    def pdata(tag, v, n, density, pointed=False):
        return random_poset_data(_rng(f"{tag}:{n}:{v}"), n, density, pointed)

    def fun(kind, n, m, density, cap):
        def factory(b, v):
            dp = pdata("dom", v, n, density, kind == "strict")
            cp = pdata("cod", v, m, density, kind == "strict")
            key = f"{kind}-fun:{n}->{m}:d{density}:cap{cap}:v{v}"
            b.json_input(key, {"dom": dp, "cod": cp})
            fn = "strict_fun_space" if kind == "strict" else "fun_space"
            p, q = _poset(dp), _poset(cp)
            return b.lib(key, f"{kind} fun_space {n}->{m}", cap,
                         lambda: getattr(nufix, fn)(p, q, cap), _poset_summary)

        return factory

    def ups(kind, n, density, cap):
        def factory(b, v):
            data = pdata("up", v, n, density, kind == "strict")
            key = f"{kind}-upsets:{n}:d{density}:cap{cap}:v{v}"
            b.json_input(key, data)
            fn = "strict_upsets" if kind == "strict" else "upsets"
            p = _poset(data)
            return b.lib(key, f"{kind} upsets of {n}", cap,
                         lambda: getattr(nufix, fn)(p, cap), _poset_summary)

        return factory

    def iso(perturb):
        def factory(b, v):
            n = 6 + 2 * (v % 16)
            data = pdata("iso", v, n, 0.25)
            other = relabel_data(_rng(f"iso-copy:{v}:{perturb}"), data, perturb)
            key = f"iso:{'perturbed' if perturb else 'shuffled'}:{n}:v{v}"
            b.json_input(key, {"a": data, "b": other})
            p, q = _poset(data), _poset(other)
            return b.lib(key, "iso_check", n, lambda: nufix.iso_check(p, q),
                         lambda iso: {"found": iso is not None})

        return factory

    def mediator(b, budget):
        key = f"cli-mediator:{LAZY}:b{budget}"
        out = b.out(key)
        argv = ["mediator", "-f", b.text_input(key, LAZY), "--inner-budget",
                str(budget), "--out", out]
        return b.cli(key, "mediator cli", budget, argv, _mediator_summary, out)

    def counts(b, _):
        return b.lib("law:enumeration_counts:4", "law enumeration_counts", 4,
                     lambda: nlaws.law_enumeration_counts(4), _law_summary)

    def coind(b, _):
        return b.lib("law:coinductive_uniqueness:4", "law coinductive_uniqueness", 4,
                     lambda: nlaws.law_coinductive_uniqueness(4), _law_summary)

    v16, cands = list(range(16)), list(range(256))
    return [
        Mix("fun-small", 64, v16, fun("plain", 4, 4, 0.3, 4096)),
        Mix("strict-fun-small", 32, v16, fun("strict", 3, 3, 0.3, 4096)),
        Mix("upsets-mid", 16, cands, ups("plain", 16, 0.2, 4096), ("n", 200, 700), 16),
        Mix("strict-upsets-mid", 16, v16, ups("strict", 12, 0.2, 4096)),
        Mix("iso-found", 32, v16, iso(False)),
        Mix("iso-not-found", 32, v16, iso(True)),
        Mix("mediator", 2, [6, 8], mediator),
        Mix("law-enumeration-counts", 1, [0], counts),
        Mix("law-coinductive-uniqueness", 1, [0], coind),
        Mix("fun-complete", 6, cands, fun("plain", 6, 5, 0.25, 4096), ("n", 1500, 2500)),
        Mix("fun-overflow", 8, cands, fun("plain", 8, 8, 0.35, 3000), "truncated"),
        Mix("upsets-overflow", 6, cands, ups("plain", 36, 0.1, 4000), "truncated"),
        Mix("strict-upsets-overflow", 8, cands, ups("strict", 24, 0.1, 4000), "truncated"),
    ]


def _bisim_mixes():
    def lts_pair(tag, v, n, k):
        a = random_lts_data(_rng(f"{tag}:a:{n}:{k}:{v}"), n, k)
        b_ = random_lts_data(_rng(f"{tag}:b:{n}:{k}:{v}"), n, k)
        return a, b_

    def game(cmd, n):
        def factory(b, v):
            k = 2 + v % 3
            a, b_ = lts_pair(cmd, v, n, k)
            key = f"cli-{cmd}:n{n}:k{k}:v{v}"
            argv = [cmd, "--lts", b.json_input(key + ":a", a), "--lts",
                    b.json_input(key + ":b", b_)]
            if cmd == "dimmed":
                approx = random_partition(_rng(f"approx:{key}"), a["values"])
                argv += ["--approx", b.json_input(key + ":approx", approx)]
            out = b.out(key)
            return b.cli(key, f"{cmd} cli", n, argv + ["--out", out],
                         _relation_summary, out)

        return factory

    def quotient(b, v):
        # F(carrier) over the class-valued instance has (classes)^(value
        # classes) tables; it must stay within the default element cap
        n, k = 10, 2 + v % 3
        values = [f"v{i}" for i in range(k)]
        classes = random_partition(_rng(f"qclasses:{n}:{v}"), values, max_blocks=2)
        lts = random_lts_data(_rng(f"quotient:{n}:{k}:{v}"), n, k, classes)
        key = f"cli-quotient:n{n}:k{k}:v{v}"
        out = b.out(key)
        rel = greatest_dimmed_self_bisim(lts, classes)
        argv = ["quotient", "--lts", b.json_input(key + ":lts", lts),
                "--approx", b.json_input(key + ":approx", classes),
                "--relation", b.json_input(key + ":rel", rel), "--out", out]
        return b.cli(key, "quotient cli", n, argv, _quotient_summary, out)

    def lemma1(b, v):
        n = 2 + v % 2
        lts = random_lts_data(_rng(f"lemma1:{n}:{v}"), n, 2)
        approx = random_partition(_rng(f"lemma1-approx:{v}"), lts["values"])
        key = f"cli-lemma1:n{n}:v{v}"
        out = b.out(key)
        argv = ["lemma1", "--lts", b.json_input(key + ":lts", lts), "--approx",
                b.json_input(key + ":approx", approx), "--exhaustive", "--out", out]
        return b.cli(key, "lemma1 cli", n, argv, _lemma1_summary, out)

    def coalg(b, v):
        n = 4 + v % 5
        a, b_ = lts_pair("coalg", v, n, 2)
        key = f"coalg_bisim:n{n}:v{v}"
        b.json_input(key, {"a": a, "b": b_})

        def call():
            c1 = nbisim.lts_to_coalgebra(nbisim.lts_from_json(a))
            c2 = nbisim.lts_to_coalgebra(nbisim.lts_from_json(b_))
            return nufix.coalg_bisim(c1, c2)

        return b.lib(key, "coalg_bisim", n, call,
                     lambda rel: {"pairs": sorted(map(list, rel.pairs))})

    v16 = list(range(16))
    return [
        Mix("bisim-8", 24, v16, game("bisim", 8)),
        Mix("bisim-12", 16, v16, game("bisim", 12)),
        Mix("dimmed-8", 14, v16, game("dimmed", 8)),
        Mix("dimmed-15", 10, v16, game("dimmed", 15)),
        Mix("bisim-20", 6, v16, game("bisim", 20)),
        Mix("dimmed-20", 6, v16, game("dimmed", 20)),
        Mix("bisim-30", 2, v16, game("bisim", 30)),
        Mix("dimmed-30", 2, v16, game("dimmed", 30)),
        Mix("bisim-40", 1, v16, game("bisim", 40)),
        Mix("quotient", 10, v16, quotient),
        Mix("lemma1", 8, v16, lemma1),
        Mix("coalg-bisim", 10, v16, coalg),
    ]


MIXES = {"tower": _tower_mixes, "enum": _enum_mixes, "bisim": _bisim_mixes}
# render jobs per pass, by the family of the solve job whose report they read
RENDERS = {"tower": (("solve det cli", 4), ("solve atom cli", 6), ("solve HO-CCS cli", 2))}


def _draw(rng, variants, count):
    """`count` variants, each as evenly often as the count allows."""
    whole, rest = divmod(count, len(variants))
    return list(variants) * whole + rng.sample(list(variants), rest)


def load_expected(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def build(name, seed, work, pools):
    """The job list of workload `name` for harness seed `seed`; `pools`
    holds the admitted variants of the banded classes."""
    rng = random.Random(f"{name}:{seed}")
    b = Builder(work)
    jobs = []
    for mix in MIXES[name]():
        variants = pools[mix.name] if mix.band else mix.variants
        jobs += [mix.factory(b, v) for v in _draw(rng, variants, mix.count)]
    rng.shuffle(jobs)
    for family, count in RENDERS.get(name, ()):
        sources = [j for j in jobs if j.family == family]
        for _ in range(count):
            src = rng.choice(sources)
            jobs.insert(rng.randint(jobs.index(src) + 1, len(jobs)), b.cli_render(src))
    return Workload(name, jobs)


def regenerate(name, work, log):
    """Digests of every job any seed can draw, and the banded pools."""
    b = Builder(work)
    digests, pools, solves = {}, {}, []

    def checked(job):
        t0 = time.perf_counter()
        summary = job.summarize(job.run())
        log(f"{name:6} {time.perf_counter() - t0:8.3f}s {job.key}")
        if summary.get("exit") == 1:
            raise RuntimeError(f"{job.key} exits 1 at this commit")
        return summary

    for mix in MIXES[name]():
        admitted = []
        for v in mix.variants:
            job = mix.factory(b, v)
            if job.key not in digests:
                summary = checked(job)
                if mix.band and not in_band(summary, mix.band):
                    continue
                digests[job.key] = digest(summary)
                if job.key.startswith("cli-solve:"):
                    solves.append(job)
            admitted.append(v)
            if mix.band and len(admitted) == mix.pool:
                break
        if mix.band:
            if len(admitted) < mix.pool:
                raise RuntimeError(f"{mix.name}: only {len(admitted)} variants in band")
            pools[mix.name] = admitted
    if RENDERS.get(name):
        for src in solves:
            job = b.cli_render(src)
            digests[job.key] = digest(checked(job))
    return digests, pools
