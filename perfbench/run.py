"""idealgate benchmark: one seeded workload per process, timed end to end or traced by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 1

Workloads: decide, census, prob, cli (see perfbench/README.md).  The last line
of standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  Lines before it, starting with ``#``, record the
environment and the details behind each figure.  The exit code is 0 only when
every answer was checked correct.

The benchmark imports idealgate from ``src/`` of the checkout it sits in and
needs nothing outside the standard library.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random
from types import SimpleNamespace

from tracer import LAYERS, Tracer, record_cache
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_PASSES = 3
STARTUP_PROBES = 10  # idealgate processes per pass pair in a traced run that measures startup

PER_LAYER = {
    "exactarith.factorize.calls": "count",
    "exactarith.factorize.self_s": "s",
    "exactarith.is_prime.calls": "count",
    "exactarith.is_prime.self_s": "s",
    "exactarith.self_s": "s",
    "lattice.determinant.calls": "count",
    "lattice.adjugate.self_s": "s",
    "lattice.fullrank_is_ideal.busy_s": "s",
    "lattice.self_s": "s",
    "lattice.canonical_basis.calls": "count",
    "lattice.canonical_basis.self_s": "s",
    "finite.kernel_lattice.hit_ratio": "ratio",
    "finite.kernel_lattice.lookups": "count",
    "finite.closure.calls": "count",
    "finite.closure.self_s": "s",
    "finite.closure.elements": "count",
    "finite.ProductRing.scale.calls": "count",
    "finite.ProductRing.element_order.calls": "count",
    "finite.self_s": "s",
    "census.enumerate_subgroups_bruteforce.self_s": "s",
    "census.self_s": "s",
    "census.subgroups_found": "count",
    "census.elements_materialized": "count",
    "census.count_subgroups_closed.self_s": "s",
    "probability.prob_nm.calls": "count",
    "probability.self_s": "s",
    "cli.self_s": "s",
    "cli.handler_ms.p50": "ms",
    "cli.startup_ms.p50": "ms",
    "cli.import_ms": "ms",
    "cli.interpreter_ms.p50": "ms",
    "trace.overhead_ratio": "ratio",
}
# Per-layer metrics that are exact counts: identical on every run with one seed.
EXACT_COUNTS = tuple(name for name, unit in PER_LAYER.items() if unit == "count")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no library source, wrong import)."""


# ---------------------------------------------------------------------------
# library loading and per-pass state


def import_library() -> SimpleNamespace:
    """Import idealgate afresh from the checkout's src/, one attribute per layer."""
    for name in [n for n in sys.modules if n == "idealgate" or n.startswith("idealgate.")]:
        del sys.modules[name]
    package = importlib.import_module("idealgate")
    if Path(package.__file__).resolve().parent != SRC / "idealgate":
        raise SetupError(f"imported idealgate from {package.__file__}, not from {SRC}")
    lib = SimpleNamespace(**{layer: importlib.import_module(f"idealgate.{layer}") for layer in LAYERS})
    # the cache itself, kept apart from any trace wrapper installed later
    lib.kernel_lattice = lib.finite.kernel_lattice
    return lib


def reset_state(lib) -> None:
    """Start every pass cold: the kernel-lattice cache is unbounded and would carry over."""
    lib.kernel_lattice.cache_clear()
    gc.collect()


def setup(workload, seed: int, small: bool):
    """Import, input generation, cache reset and warm-up; returns (lib, ops, seconds)."""
    start = time.perf_counter()
    lib = import_library()
    ops = workload.make_ops(lib, Random(seed), small)
    reset_state(lib)
    for op in workload.warmup_ops(ops):
        try:
            workload.run(lib, op)
        except Exception:
            pass  # the timed passes record and grade the failure
    reset_state(lib)
    return lib, ops, time.perf_counter() - start


# ---------------------------------------------------------------------------
# timed passes


class Pass:
    """One run of the op list: per-op latencies, results and errors."""

    def __init__(self, workload, lib, ops) -> None:
        reset_state(lib)
        self.latency_ns: list[int] = []
        self.results: list = []
        self.errors: dict[int, str] = {}
        run = workload.run
        perf = time.perf_counter_ns
        begin = perf()
        for i, op in enumerate(ops):
            t0 = perf()
            try:
                result = run(lib, op)
            except Exception as exc:  # a failed op is counted, never fatal
                result = None
                self.errors[i] = f"{type(exc).__name__}: {exc}"
            self.latency_ns.append(perf() - t0)
            self.results.append(result)
        self.wall_ns = perf() - begin


def timed_passes(workload, lib, ops, seconds: float, min_samples: int) -> list[Pass]:
    """Repeat the op list until `seconds` have passed, with at least MIN_PASSES
    passes and `min_samples` op latencies."""
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while (
        time.perf_counter() < deadline
        or len(passes) < MIN_PASSES
        or len(passes) * len(ops) < min_samples
    ):
        passes.append(Pass(workload, lib, ops))
    return passes


def tail_samples_needed(q: float) -> int:
    """Samples needed for at least ten to lie beyond the q-th percentile."""
    return math.ceil(10 / (1 - q) - 1e-9)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


# ---------------------------------------------------------------------------
# correctness gate


def grade(workload, lib, ops, passes: list[Pass]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages).  Each op's first answer is checked against
    an oracle; every later pass must give the same answer."""
    first_error: dict[int, str] = {}
    reference: dict[int, object] = {}
    for p in passes:
        for i, result in enumerate(p.results):
            if i not in p.errors and i not in reference:
                reference[i] = result
    for i, result in reference.items():
        try:
            message = workload.check(lib, ops[i], result)
        except Exception as exc:
            message = f"check raised {type(exc).__name__}: {exc}"
        if message:
            first_error[i] = message
    attempted = failed = 0
    messages: list[str] = []
    for n, p in enumerate(passes):
        for i, result in enumerate(p.results):
            attempted += 1
            if i in p.errors:
                message = p.errors[i]
            elif i in first_error:
                message = first_error[i]
            elif not workload.same(result, reference[i]):
                message = "answer differs from an earlier pass"
            else:
                continue
            failed += 1
            if len(messages) < 20:
                messages.append(f"pass {n} op {i} {ops[i]!r:.120}: {message}")
    return attempted, failed, messages


# ---------------------------------------------------------------------------
# environment record


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "idealgate").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "cpu_ref_ms_start": cpu_reference_ms(),
        "seed": seed,
    }


def cpu_reference_ms() -> float:
    """Median time of a fixed pure-Python loop: host speed drift shows here,
    apart from any change to idealgate."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the two kinds of run


def latency_stats(workload, passes: list[Pass]) -> dict:
    """Per-op latency: the median and the tail percentile of each pass, then the
    median of those over passes.

    Every pass runs the same ops, so per-pass figures are comparable, and the
    median over passes keeps a burst of load on the shared host that spans a
    few passes out of the result.  The tail percentile is fixed per workload;
    the run lasts until at least ten samples lie beyond it in total.
    """
    p50, tail, beyond = [], [], 0
    for p in passes:
        lat = sorted(ns / 1e6 for ns in p.latency_ns)
        p50.append(statistics.median(lat))
        tail.append(percentile(lat, workload.tail_q))
        beyond += sum(1 for v in lat if v > tail[-1])
    return {
        "p50_ms": statistics.median(p50),
        "tail_ms": statistics.median(tail),
        "tail_percentile": workload.tail_q * 100,
        "samples": sum(len(p.latency_ns) for p in passes),
        "samples_beyond_tail": beyond,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_untraced(workload, seed: int, seconds: float, small: bool):
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        lib, ops, seconds_taken = setup(workload, seed, small)
        setup_runs.append(seconds_taken)
    passes = timed_passes(workload, lib, ops, seconds, tail_samples_needed(workload.tail_q))
    stats = latency_stats(workload, passes)
    metrics = {
        "setup_s": (statistics.median(setup_runs), "s"),
        "wall_s": (statistics.median(p.wall_ns for p in passes) / 1e9, "s"),
        "p50_ms": (stats["p50_ms"], "ms"),
        "tail_ms": (stats["tail_ms"], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    detail = {
        "ops_per_pass": len(ops),
        "passes": len(passes),
        "setup_s_runs": setup_runs,
        **{k: v for k, v in stats.items() if k not in metrics},
    }
    return lib, ops, passes, metrics, detail


def run_traced(workload, seed: int, seconds: float, small: bool):
    """Alternate untraced and traced passes, so that trace.overhead_ratio compares
    passes made under the same load; per-layer figures come from the traced ones."""
    lib, ops, _ = setup(workload, seed, small)
    tracer = Tracer()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    summaries: list[dict] = []
    probes: dict[str, list[float]] = {"interpreter": [], "import": [], "startup": [], "handler": []}
    deadline = time.perf_counter() + seconds
    pair_s = 0.0
    while not traced or time.perf_counter() + pair_s < deadline:
        start = time.perf_counter()
        untraced.append(Pass(workload, lib, ops))
        tracer.reset()
        tracer.install()
        try:
            traced.append(Pass(workload, lib, ops))
        finally:
            tracer.uninstall()
        record_cache(tracer, lib.kernel_lattice)
        summaries.append(tracer.summary())
        if workload.measures_startup:
            process_probes(probes, ops[:STARTUP_PROBES])
        pair_s = time.perf_counter() - start
    metrics = {}
    for name, unit in PER_LAYER.items():
        values = [s.get(name, 0) for s in summaries]
        metrics[name] = (values[0] if unit == "count" else statistics.median(values), unit)
    untraced_wall = statistics.median(p.wall_ns for p in untraced)
    traced_wall = statistics.median(p.wall_ns for p in traced)
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    lookups = metrics["finite.kernel_lattice.lookups"][0]
    hits = summaries[0].get("finite.kernel_lattice.hits", 0)
    metrics["finite.kernel_lattice.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    if workload.measures_startup:
        interpreter = statistics.median(probes["interpreter"])
        metrics["cli.interpreter_ms.p50"] = (interpreter, "ms")
        metrics["cli.import_ms"] = (statistics.median(probes["import"]) - interpreter, "ms")
        for key in ("startup", "handler"):
            values = probes[key]
            metrics[f"cli.{key}_ms.p50"] = (statistics.median(values) if values else 0.0, "ms")
    unstable = [
        name for name in EXACT_COUNTS
        if any(s.get(name, 0) != summaries[0].get(name, 0) for s in summaries)
    ]
    detail = {
        "ops_per_pass": len(ops),
        "pass_pairs": len(traced),
        "kernel_lattice_hits": hits,
        "idealgate_processes": len(probes["startup"]),
        "counts_differ_between_traced_passes": unstable,
    }
    return lib, ops, untraced + traced, metrics, detail


def process_probes(out: dict[str, list[float]], ops: list) -> None:
    """Time whole processes, in ms: one ``idealgate`` process per op (its startup
    is the wall time minus the CLI's own elapsed_ms), each followed by a bare
    interpreter and an import-only process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def timed(args: list[str]) -> tuple[float, str]:
        t0 = time.perf_counter_ns()
        proc = subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
        )
        return (time.perf_counter_ns() - t0) / 1e6, proc.stdout

    for op in ops:
        wall, stdout = timed(["-m", "idealgate", *op])
        try:
            elapsed = json.loads(stdout)["elapsed_ms"]
        except (ValueError, KeyError):
            pass  # the in-process passes grade this op
        else:
            out["startup"].append(wall - elapsed)
            out["handler"].append(elapsed)
        out["interpreter"].append(timed(["-c", "pass"])[0])
        out["import"].append(timed(["-c", "import idealgate.cli"])[0])


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true", help="a much shorter op list, for the self-test"
    )
    args = parser.parse_args(argv)
    if not (SRC / "idealgate" / "__init__.py").is_file():
        print(f"error: no idealgate sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("IDEALGATE_CAP", None)  # the caps in force are the defaults
    workload = WORKLOADS[args.workload]()
    env = environment(args.seed)
    # fixed bytecode-cache state: every module compiled before anything is timed
    compileall.compile_dir(str(SRC / "idealgate"), quiet=1)
    try:
        run = run_traced if args.trace else run_untraced
        lib, ops, passes, metrics, detail = run(workload, args.seed, args.seconds, args.small)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted, failed, messages = grade(workload, lib, ops, passes)
    env["loadavg_end"] = os.getloadavg()
    env["cpu_ref_ms_end"] = cpu_reference_ms()
    detail["fail_ratio"] = {"value": failed / attempted, "failed": failed, "attempted": attempted}
    print("# env " + json.dumps(env))
    print("# detail " + json.dumps(detail))
    for message in messages:
        print("# FAIL " + message)
    correct = failed == 0 and not detail.get("counts_differ_between_traced_passes")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
