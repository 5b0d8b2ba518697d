"""Per-layer spans recorded from outside the program.

`Tracer.install()` wraps every public function and public method (plus
`__init__`) of each layer module of `nufix` and rebinds every copy of it:
modules import posets, functors and engine functions by name
(`from .posets import coalesced_sum`), so patching the defining module alone
would miss most calls.  Methods are patched on their class, which every
importer shares.  `uninstall()` puts every original back.

A span's self time is its duration minus the durations of the spans it
directly contains; the harness's own time is the traced pass's wall time
minus the top-level spans.  Aggregates are kept in memory; nothing is
written while a pass runs.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "kernels", "posets", "functors", "engine", "serialize",
    "bisim", "mediator", "laws", "cli",
)

# Tiny accessors that the hot loops call millions of times (FinPoset.index
# alone is called tens of millions of times on HO-CCS).  A span on each call
# would cost more than the call; their time shows as the caller's self time.
UNWRAPPED = {
    "posets": {
        "FinPoset.index", "FinPoset.leq_tags", "FinPoset.key",
        "tag_sort_key", "tag_to_json", "tag_from_json", "pretty_tag",
    },
    "bisim": {
        "LtsSpec.kind", "LtsSpec.cont", "LtsSpec.out",
        "Equivalence.related", "Equivalence.class_of", "Equivalence.class_tag",
    },
}

# Inclusive-time metrics: time of the outermost span among the group.
INCLUSIVE = {
    "posets.iso_check": "posets.iso_check_s",
    "functors.FunctorInstance.on_ep": "functors.on_ep_s",
    "engine.nu_on_transformation": "engine.nu_s",
    "engine.final_coalgebra": "engine.verify_s",
    "engine.check_limit_colimit": "engine.verify_s",
    "engine.coinductive_extension": "engine.verify_s",
    "engine.coalgebra_morphisms": "engine.verify_s",
    "serialize.dumps": "serialize.dump_s",
    "serialize.solution_report_json": "serialize.dump_s",
    "serialize.terminal_report_json": "serialize.dump_s",
    "serialize.mediator_report_json": "serialize.dump_s",
    "serialize.load_report": "serialize.load_s",
    "serialize.load_solution_report": "serialize.load_s",
    "serialize.load_terminal_report": "serialize.load_s",
    "serialize.load_mediator_report": "serialize.load_s",
}

BUILDERS = {
    "posets." + n
    for n in ("product", "separated_sum", "coalesced_sum", "lift", "fun_space",
              "strict_fun_space", "upsets", "strict_upsets")
}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [child seconds, full enumerations, qualname]
        self.self_s = defaultdict(float)  # by qualified name
        self.incl_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._patches = []

    # -- installation -------------------------------------------------

    def install(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "nufix" or name.startswith("nufix."))]
        for layer in LAYERS:
            module = sys.modules["nufix." + layer]
            skip = UNWRAPPED.get(layer, set())
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and name not in skip:
                    wrapper = self._wrap(layer, name, obj)
                    for mod in mods:
                        for attr, val in list(vars(mod).items()):
                            if val is obj:
                                self._patch(mod, attr, val, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj, skip)
        return self

    def _wrap_class(self, layer, cls, skip):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            qual = f"{cls.__name__}.{name}"
            if qual in skip:
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                wrapped = type(attr)(self._wrap(layer, qual, attr.__func__))
            elif inspect.isfunction(attr):
                wrapped = self._wrap(layer, qual, attr)
            else:
                continue
            self._patch(cls, name, attr, wrapped)

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, layer, name, fn):
        qual = f"{layer}.{name}"
        observe = OBSERVERS.get(qual)
        group = INCLUSIVE.get(qual)
        stack = self.stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0, 0, qual]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._exit(layer, qual, group, frame, perf() - t0, exc)
                raise
            self._exit(layer, qual, group, frame, perf() - t0, None)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        span.__perfbench_span__ = qual
        return span

    def _exit(self, layer, qual, group, frame, dur, exc):
        stack = self.stack
        stack.pop()
        self.self_s[qual] += dur - frame[0]
        self.calls[qual] += 1
        if stack:
            stack[-1][0] += dur
        if group is not None and not any(INCLUSIVE.get(f[2]) == group for f in stack):
            self.incl_s[group] += dur
        if exc is not None and type(exc).__name__ == "ElementCapExceeded":
            self.counts["kernels.overflow"] += frame[1]
            if layer == "posets" and not (stack and stack[-1][2].startswith("posets.")):
                self.counts["posets.cap_exceeded"] += 1

    # -- results ------------------------------------------------------

    def layer_calls(self, layer):
        return sum(n for q, n in self.calls.items() if q.startswith(layer + "."))

    def layer_self_s(self, layer):
        return sum(s for q, s in self.self_s.items() if q.startswith(layer + "."))

    def reset(self):
        self.self_s.clear()
        self.incl_s.clear()
        self.calls.clear()
        self.counts.clear()


# --------------------------------------------------------------------------
# counters recorded at the layer boundary


def _enumeration(tracer, args, kwargs, result, limit_pos):
    limit = _arg(args, kwargs, limit_pos, "limit")
    tracer.counts["kernels.rows"] += len(result)
    tracer.counts["kernels.enumerations"] += 1
    if limit > 0 and len(result) == limit and tracer.stack:
        tracer.stack[-1][1] += 1


def _iso_search(tracer, args, kwargs, result):
    tracer.counts["kernels.iso_found"] += result is not None


def _built(tracer, args, kwargs, result):
    tracer.counts["posets.elements_built"] += len(result)


def _sequence(tracer, args, kwargs, result):
    tracer.counts["engine.stages"] += len(result.stages)
    tracer.counts["engine.stabilized"] += result.status.stabilized


def _dumped(tracer, args, kwargs, result):
    tracer.counts["serialize.bytes"] += len(result)


def _relation(tracer, args, kwargs, result):
    tracer.counts["bisim.kept"] += len(result.pairs)
    tracer.counts["bisim.candidates"] += len(result.left) * len(result.right)


OBSERVERS = {
    "kernels.enum_monotone_tables": lambda t, a, k, r: _enumeration(t, a, k, r, 2),
    "kernels.enum_upsets": lambda t, a, k, r: _enumeration(t, a, k, r, 1),
    "kernels.find_isomorphism": _iso_search,
    "engine.terminal_sequence": _sequence,
    "serialize.dumps": _dumped,
    "bisim.value_bisim": _relation,
    "bisim.dimmed_bisim": _relation,
    "bisim.coalg_bisim": _relation,
}
OBSERVERS.update({q: _built for q in BUILDERS})


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, passes):
    """Per-pass layer metrics from the aggregates of `passes` traced passes."""
    t, per = tracer, (lambda x: x / passes)
    calls = t.calls
    out = {f"{layer}.self_s": (per(t.layer_self_s(layer)), "s") for layer in LAYERS}
    out.update({
        "kernels.calls": (per(t.layer_calls("kernels")), "count"),
        "kernels.rows": (per(t.counts["kernels.rows"]), "count"),
        "kernels.overflow_ratio": (
            _ratio(t.counts["kernels.overflow"], t.counts["kernels.enumerations"]), "ratio"),
        "kernels.iso_found_ratio": (
            _ratio(t.counts["kernels.iso_found"], calls["kernels.find_isomorphism"]), "ratio"),
        "posets.calls": (per(t.layer_calls("posets")), "count"),
        "posets.elements_built": (per(t.counts["posets.elements_built"]), "count"),
        "posets.cap_exceeded": (per(t.counts["posets.cap_exceeded"]), "count"),
        "posets.iso_check_s": (per(t.incl_s["posets.iso_check_s"]), "s"),
        "functors.on_object_calls": (
            per(calls["functors.FunctorInstance.on_object"]), "count"),
        "functors.on_ep_calls": (per(calls["functors.FunctorInstance.on_ep"]), "count"),
        "functors.on_map_calls": (per(calls["functors.FunctorInstance.on_map"]), "count"),
        "functors.on_ep_s": (per(t.incl_s["functors.on_ep_s"]), "s"),
        "functors.lift_calls": (
            per(calls["functors.lifted_related"] + calls["functors.rel_lift"]), "count"),
        "engine.stages": (per(t.counts["engine.stages"]), "count"),
        "engine.stabilized_ratio": (
            _ratio(t.counts["engine.stabilized"], calls["engine.terminal_sequence"]), "ratio"),
        "engine.nu_s": (per(t.incl_s["engine.nu_s"]), "s"),
        "engine.verify_s": (per(t.incl_s["engine.verify_s"]), "s"),
        "serialize.dump_s": (per(t.incl_s["serialize.dump_s"]), "s"),
        "serialize.load_s": (per(t.incl_s["serialize.load_s"]), "s"),
        "serialize.bytes": (per(t.counts["serialize.bytes"]), "bytes"),
        "bisim.calls": (per(t.layer_calls("bisim")), "count"),
        "bisim.kept_ratio": (
            _ratio(t.counts["bisim.kept"], t.counts["bisim.candidates"]), "ratio"),
        "mediator.adjunction_checks": (per(calls["mediator.adjunction_check"]), "count"),
        "laws.checks": (
            per(sum(n for q, n in calls.items() if q.startswith("laws.law_"))), "count"),
    })
    return out
