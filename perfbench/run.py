"""Benchmark harness for nufix: one closed-loop client, one workload per process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tower --seed 1 --seconds 30 --trace 0

The harness builds the workload's seeded job list (see workloads.py), then
runs the whole list again and again, one job at a time, until `--seconds`
have passed, and checks every job's semantic digest against expected.json.
With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced passes and reports the per-layer metrics,
the growth curves and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

Other modes:
    --regen-expected          rewrite expected.json from the program as it is
    --compare LOG_A LOG_B     compare two saved outputs (refuses to compare
                              runs whose kernel backend differs)
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60

# The machine is shared: the host deschedules this process at times, and
# its speed drifts by 20-40% over tens of seconds.  So jobs are timed in
# process CPU seconds (user + system), which leave out the time the process
# was not running, and every time is rescaled to a reference speed.  The
# speed is measured by a fixed calibration loop, run just before each job,
# and smoothed over the neighbouring jobs.  The reference is the loop taking
# CALIBRATION_S of CPU time, about its fastest on the 2-CPU machine the
# bounds were set on.
CALIBRATION_S = 0.0015
CALIBRATION_WINDOW = 5


def calibration():
    """Fixed integer work.  It allocates no containers and touches no
    memory, so the program's heap and cache state cannot slow it down."""
    s = 0
    for i in range(20000):
        s += (i * i) % 7
    return s


def _calibrated():
    t0 = time.process_time()
    calibration()
    return time.process_time() - t0


def _speed_scale(samples):
    """Rescale factor per sample: reference over the local median."""
    w = CALIBRATION_WINDOW
    return [CALIBRATION_S / statistics.median(samples[max(0, i - w):i + w + 1])
            for i in range(len(samples))]


def _fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def _source_root():
    """Put the checkout's own `src` first on the path, or refuse to run."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "nufix", "__init__.py")):
        _fail("no src/nufix here; run from the root of a nufix checkout")
    sys.path.insert(0, src)
    return src


def _work_dir():
    path = os.path.join(os.path.abspath(".perfbench-work"), str(os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _cleanup(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:
        pass  # another run still uses the work root


def _setup(workload, seed, work):
    """Import nufix and build the seeded inputs: the timed set-up, rescaled
    to the reference speed by calibrations just before it."""
    scale = CALIBRATION_S / statistics.median(_calibrated() for _ in range(11))
    t0 = time.process_time()
    import workloads

    expected = workloads.load_expected(EXPECTED)
    wl = workloads.build(workload, seed, work, expected["pools"][workload])
    seconds = (time.process_time() - t0) * scale
    return wl, expected["digests"][workload], seconds


def _probe(workload, seed):
    """One set-up in a fresh interpreter; returns its seconds."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# environment stamp


def _git_commit():
    head = os.path.join(".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _source_sha256(src):
    h = hashlib.sha256()
    pkg = os.path.join(src, "nufix")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(args, src):
    import numpy
    from nufix import kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        # a kernels module without the switch has one interpreted implementation
        "kernel_backend": getattr(kernels, "KERNEL_BACKEND", "python"),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(src),
    }


# --------------------------------------------------------------------------
# running passes


class Checker:
    """Compares each job's semantic digest with expected.json."""

    def __init__(self, expected):
        import workloads

        self.digest = workloads.digest
        self.file_sha256 = workloads.file_sha256
        self.expected = expected
        self.failures = []
        self.report_sha256 = {}

    def check(self, job, outcome, error):
        if error is not None:
            return self._fail(job, error)
        try:
            summary = job.summarize(outcome)
        except Exception as exc:  # a malformed report is a failed job
            return self._fail(job, f"summary: {type(exc).__name__}: {exc}")
        if summary.get("exit") == 1:
            return self._fail(job, "exit code 1")
        want = self.expected.get(job.key)
        got = self.digest(summary)
        if want != got:
            return self._fail(job, f"digest {got} != expected {want}: "
                                   f"{json.dumps(summary)[:300]}")
        if job.report is not None and job.key not in self.report_sha256:
            self.report_sha256[job.key] = self.file_sha256(job.report)
        return True

    def _fail(self, job, why):
        self.failures.append((job.key, why))
        return False


def run_pass(jobs, checker):
    """Run every job once, in order.  Returns the raw wall seconds and
    [(job, CPU seconds at the reference speed, ok)]."""
    times, calib, oks = [], [], []
    cpu = time.process_time
    start = time.perf_counter()
    for job in jobs:
        calib.append(_calibrated())
        t0 = cpu()
        outcome = error = None
        try:
            outcome = job.run()
        except Exception as exc:  # includes RecursionError; counted as failed
            error = f"{type(exc).__name__}: {exc}"
        times.append(cpu() - t0)
        oks.append(checker.check(job, outcome, error))
    wall = time.perf_counter() - start
    scale = _speed_scale(calib)
    return wall, [(job, t * f, ok) for job, t, f, ok in zip(jobs, times, scale, oks)]


def _quantile(values, q):
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[q - 1]


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def best_of(passes):
    """Each job's best latency over the passes, in job-list order.

    The machine is shared: a fixed CPU loop can vary up to 2x from one
    second to the next, so a job's fastest repetition is its uncontended
    cost, and quantiles of the per-job bests are steady where pooled
    latencies are not.
    """
    return [min(ts) for ts in zip(*([dt for _, dt, _ in rows] for _, rows in passes))]


def growth_curves(jobs, times):
    by = {}
    for job, dt in zip(jobs, times):
        by.setdefault(job.family, {}).setdefault(job.size, []).append(dt)
    return {
        fam: {str(size): round(statistics.median(ts), 6) for size, ts in sorted(sizes.items())}
        for fam, sizes in sorted(by.items())
    }


def measure(wl, checker, seconds, tracer=None):
    """Passes over the whole job list until `seconds` have passed; with a
    tracer, each untraced pass is followed by a traced one."""
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    while True:
        plain.append(run_pass(wl.jobs, checker))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(wl.jobs, checker))
            finally:
                tracer.uninstall()
        if time.perf_counter() >= deadline:
            return plain, traced


# --------------------------------------------------------------------------
# reporting


def _print_table(metrics):
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit:<6} n={n}")


def _result_line(checker, attempted, metrics):
    failed = len(checker.failures)
    for key, why in checker.failures[:10]:
        sys.stderr.write(f"perfbench: FAILED {key}: {why}\n")
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    })


def _rows(passes):
    return [row for _, rows in passes for row in rows]


def end_to_end(args, wl, checker, setup_samples):
    plain, _ = measure(wl, checker, args.seconds)
    best = best_of(plain)
    rows = _rows(plain)
    failed = sum(1 for _, _, ok in rows if not ok)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "wall_s": (sum(best), "s", len(plain)),
        "job_s.p50": (_quantile(best, 50), "s", len(best)),
        "job_s.p90": (_quantile(best, 90), "s", len(best)),
        "peak_rss_mb": (_peak_rss_mb(), "MB", 1),
    }
    print(f"end-to-end metrics ({len(wl.jobs)} jobs, each the best of {len(plain)} "
          f"passes; pass walls {', '.join(f'{w:.3f}' for w, _ in plain)} s):")
    _print_table(metrics)
    print(f"  {'fail_frac':<32} {failed / len(rows):>14.6g} {'ratio':<6} n={len(rows)}")
    return rows, metrics


def per_layer(args, wl, checker):
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    plain, traced = measure(wl, checker, args.seconds, tracer)
    passes = len(traced)
    wall = sum(w for w, _ in traced) / passes
    spans = sum(tracer.self_s.values()) / passes
    metrics = {
        name: (value, unit, passes)
        for name, (value, unit) in layer_metrics(tracer, passes).items()
    }
    metrics["harness.self_s"] = (wall - spans, "s", passes)
    metrics["trace.wall_s"] = (wall, "s", passes)
    metrics["trace.overhead_frac"] = (
        sum(best_of(traced)) / sum(best_of(plain)) - 1, "ratio", passes)
    print(f"per-layer metrics ({len(wl.jobs)} jobs; {passes} traced and {len(plain)} "
          f"untraced passes; values per traced pass):")
    _print_table(metrics)
    curves = growth_curves(wl.jobs, best_of(plain))
    print(json.dumps({"growth_curves_median_s": curves}))
    return _rows(plain) + _rows(traced), metrics


def compare(path_a, path_b):
    """Side-by-side medians of two saved outputs of this harness."""
    def load(path):
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.startswith("{")]
        env = next(json.loads(ln)["env"] for ln in lines if ln.startswith('{"env"'))
        return env, json.loads(lines[-1])

    (env_a, res_a), (env_b, res_b) = load(path_a), load(path_b)
    for field in ("kernel_backend", "workload", "trace"):
        if env_a[field] != env_b[field]:
            _fail(f"refusing to compare: {field} differs "
                  f"({env_a[field]!r} vs {env_b[field]!r})")
    for name, a in res_a["metrics"].items():
        b = res_b["metrics"].get(name)
        if b is not None:
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            print(f"{name:<32} {a['value']:>12.6g} {b['value']:>12.6g} "
                  f"{a['unit']:<6} x{ratio:.3f}")


def regen_expected():
    import workloads

    work = _work_dir()
    out = {"digests": {}, "pools": {}}
    try:
        for name in workloads.WORKLOADS:
            digests, pools = workloads.regenerate(
                name, os.path.join(work, name), lambda line: print(line, flush=True))
            out["digests"][name] = digests
            out["pools"][name] = pools
    finally:
        _cleanup(work)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("tower", "enum", "bisim"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--regen-expected", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("LOG_A", "LOG_B"))
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    src = _source_root()
    if args.regen_expected:
        return regen_expected()
    if args.workload is None:
        ap.error("--workload is required")

    work = _work_dir()
    try:
        wl, digests, setup0 = _setup(args.workload, args.seed, work)
        if args.setup_probe:
            print(setup0)
            return
        print(json.dumps({"env": environment(args, src)}))
        checker = Checker(digests)
        if args.trace:
            rows, metrics = per_layer(args, wl, checker)
        else:
            samples = [setup0] + [_probe(args.workload, args.seed)
                                  for _ in range(SETUP_SAMPLES - 1)]
            rows, metrics = end_to_end(args, wl, checker, samples)
        print(json.dumps({"report_sha256": checker.report_sha256}))
        print(_result_line(checker, len(rows), metrics))
    finally:
        _cleanup(work)


if __name__ == "__main__":
    main()
