#!/usr/bin/env python3
"""Benchmark of the memspec CLI: seeded closed-loop workloads with oracles.

Run from the repository root:

    python3 perfbench/run.py --workload modal --seed 1 --seconds 25 --trace 0

The runner imports ``memspec.cli`` from ``src/`` and calls ``main(argv)``
in-process as one closed-loop client: the next call starts when the previous
one returns.  A run draws one call list from ``--seed`` (``workloads.py``)
and makes a fixed number of passes over it, each in a seeded shuffled
order; ``--seconds`` over the workload's nominal pass time sets the number
of passes, so the work of a run never depends on timing.  Each call's
stdout is judged by ``oracles.py`` and its wall time recorded.  A fixed
probe, independent of memspec, runs before every call and around every
set-up start; the end-to-end timings are wall times divided by the host
factor the probe measured (probe time over ``PROBE_REF_S``), so that the
slow phases of a shared host do not read as changes of the program.  The
summary line gives the unscaled figures and the factors too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
passes with every call twice, untraced and then traced, and prints
per-layer metrics (``tracing.py``) plus the tracing overhead.  The last
stdout line is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# BLAS and OpenMP read these once, when numpy is first imported.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from oracles import judge  # noqa: E402
from tracing import LAYERS, ROOT_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS, Call  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: The tail is the highest percentile with this many calls beyond it.
TAIL_BEYOND = 10

#: Timed fresh-interpreter starts per run, spread over the gaps before,
#: between and after the passes (after one untimed start).
SETUP_STARTS = 8
SETUP_SNIPPET = ("import sys; import memspec.cli; "
                 "from memspec.config import parse_config; "
                 "parse_config(sys.argv[1])")

#: Host-speed probe: fixed work that memspec never touches, a pure-Python
#: loop and small ``numpy.roots`` calls, like the mode solver's mix.
PROBE_POLY = np.array([1.0, 0.3, -2.0, 0.7, 1.1, -0.4])
#: Probe time on a quiet 2-vCPU x86-64 host (its 5th percentile over 3000
#: probes); timings are scaled to the speed this stands for.
PROBE_REF_S = 0.004

WARMUP_POLICY = ("one untimed interpreter start before the timed set-up "
                 "starts; one untimed call per subcommand before the first "
                 "pass")

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "calls_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Layers timed with calls, total and self time; the CLI handlers get self.
TIMED_LAYERS = [name for name, _, _ in LAYERS if not name.startswith("cli.")]
HANDLERS = [name for name, _, _ in LAYERS if name.startswith("cli.")]
COUNTERS = {
    "boxmodes.enumerate_modes.modes": "count/call",
    "scalar.mode_eigenvalues.roots_kept": "count/call",
    "scalar.mode_eigenvalues.roots_dropped": "count/call",
    "enclosure.boundary_cloud.points": "count/call",
    "pencil.nonlinear_eigenvalues_fd.computed_bytes": "B/call",
}
PER_LAYER_UNITS = {
    **{f"{name}.{part}": unit for name in TIMED_LAYERS
       for part, unit in (("calls", "count/call"), ("total_s", "s/call"),
                          ("self_s", "s/call"))},
    **{f"{name}.self_s": "s/call" for name in HANDLERS},
    **COUNTERS,
    "pencil.nonlinear_eigenvalues_fd.companion_dim": "rows",
    "cli.emit_bytes": "B/call",
    "trace.calls_per_s_untraced": "1/s",
    "trace.calls_per_s_traced": "1/s",
    "trace.overhead_ratio": "ratio",
}

#: Layer groups quoted in the traced breakdown.
GROUPS = {
    "mode_solver": ("scalar.mode_eigenvalues", "scalar.cleared_mode_polynomial",
                    "polyroots.all_roots"),
    "branch_zeros": ("scalar.fredholm_factor_zeros",
                     "polyroots.real_roots_in_interval"),
    "fd_solver": ("pencil.nonlinear_eigenvalues_fd",),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_cli():
    """Import memspec.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "memspec" / "cli.py").is_file():
        raise BenchError(f"no memspec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import memspec.cli

    if not Path(memspec.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"memspec imported from {memspec.cli.__file__}")
    return memspec.cli


def commit() -> str | None:
    """The checkout's commit when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "memspec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_record(args) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "commit": commit(),
        "source_sha256": source_digest(),
        "warmup": WARMUP_POLICY,
        "probe_ref_s": PROBE_REF_S,
        "loop": "closed, one client, in-process memspec.cli.main(argv)",
    }


def probe() -> float:
    """Wall time of the host-speed probe."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(40000):
        acc += (i % 7) * 0.5
    for _ in range(40):
        np.roots(PROBE_POLY)
    return time.perf_counter() - start


def host_factor(probes) -> float:
    """How much slower than the reference the host ran, from probe times."""
    return statistics.median(probes) / PROBE_REF_S


class SetupTimer:
    """Fresh interpreters that import the CLI and parse one config.

    ``start(n)`` times ``n`` of them, each with the host factor of three
    probes before and three after it; the first start of all is untimed.
    """

    def __init__(self, config_path: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.env = env
        self.cmd = [sys.executable, "-c", SETUP_SNIPPET, str(config_path)]
        self.times: list[float] = []
        self.factors: list[float] = []
        self._once()

    def _once(self) -> float:
        start = time.perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, env=self.env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120,
                              check=False)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError("set-up start failed: "
                             + proc.stderr.decode(errors="replace")[-400:])
        return elapsed

    def start(self, count: int) -> None:
        for _ in range(count):
            before = [probe() for _ in range(3)]
            self.times.append(self._once())
            self.factors.append(host_factor(before + [probe()
                                                      for _ in range(3)]))


def spread(total: int, gaps: int) -> list[int]:
    """``total`` items over ``gaps`` slots, as evenly as possible."""
    return [total // gaps + (g < total % gaps) for g in range(gaps)]


def invoke(main, argv):
    """(latency, exit code, stdout, error) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    code, failure = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback fails the call, not the benchmark
        failure = exc
    latency = time.perf_counter() - start
    error = None if failure is None else f"{type(failure).__name__}: {failure}"
    return latency, code, out.getvalue(), error


@dataclass(slots=True)
class Result:
    """One timed call: list entry, pass, wall time, failure, output size."""

    index: int
    pass_no: int
    call: Call
    latency: float
    kind: str | None
    problems: list[str]
    out_bytes: int


def write_config(path: Path, config: dict) -> str:
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def run_passes(main, calls, args, work_dir: Path, passes: int,
               between=None, tracer: Tracer | None = None):
    """Closed loop: ``passes`` passes over ``calls``, each in a new order.

    ``between(g)`` runs before pass ``g`` and once more after the last
    pass.  The host-speed probe runs before every call.  Returns (results,
    untraced seconds per call, probe times per pass).  With a tracer,
    every call first runs untraced and then traced on the same input, so
    the two timings see the same machine conditions; the results are the
    traced calls.
    """
    rng = np.random.default_rng([args.seed, 1])
    paths = [write_config(work_dir / f"call{i}.json", c.config)
             for i, c in enumerate(calls)]
    results: list[Result] = []
    plain: list[float] = []
    probes: list[list[float]] = [[] for _ in range(passes)]
    traced_main = None if tracer is None else tracer.wrap(ROOT_SPAN, main)
    for g in range(passes):
        if between is not None:
            between(g)
        for i in rng.permutation(len(calls)):
            call, argv = calls[i], calls[i].argv(paths[i])
            probes[g].append(probe())
            if tracer is None:
                latency, code, out, error = invoke(main, argv)
            else:
                plain.append(invoke(main, argv)[0])
                tracer.call_id = len(results)
                tracer.install()
                try:
                    latency, code, out, error = invoke(traced_main, argv)
                finally:
                    tracer.uninstall()
            kind, problems = judge(call.subcommand, call.config, argv, code,
                                   out, error)
            results.append(Result(int(i), g, call, latency, kind, problems,
                                  len(out.encode())))
    if between is not None:
        between(passes)
    return results, plain, probes


def warm_up(main, workload, work_dir: Path) -> None:
    for call in workload.warmup:
        invoke(main, call.argv(write_config(work_dir / "warmup.json",
                                            call.config)))


def call_latencies(results, factors=None) -> list[float]:
    """Each list entry's median time over the passes; with ``factors``,
    every pass's times are first divided by that pass's host factor."""
    times = defaultdict(list)
    for r in results:
        times[r.index].append(
            r.latency / (factors[r.pass_no] if factors else 1.0))
    return [statistics.median(times[i]) for i in sorted(times)]


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile with at
    least TAIL_BEYOND values beyond it (the maximum for short lists)."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        rank = len(ordered)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def timings(latencies) -> dict:
    """Latency and throughput figures of per-call times."""
    return {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail(latencies)[1],
        "calls_per_s": len(latencies) / sum(latencies),
    }


def summary(results, probes) -> dict:
    by_command = defaultdict(list)
    for r in results:
        by_command[r.call.subcommand].append(r)
    failed = [r for r in results if r.kind is not None]
    unscaled = call_latencies(results)
    percentile, _ = tail(unscaled)
    busy = sum(r.latency for r in results)
    return {
        "passes": len(probes),
        "pass_busy_s": [sum(r.latency for r in results if r.pass_no == g)
                        for g in range(len(probes))],
        "pass_host_factor": [host_factor(p) for p in probes],
        "unscaled": timings(unscaled),
        "calls": len(results),
        "distinct_calls": len(unscaled),
        "busy_s": busy,
        "calls_per_s_all_passes": len(results) / busy,
        "failed_ratio": len(failed) / len(results),
        "tail_percentile": percentile,
        "tail_samples": len(unscaled),
        "calls_beyond_tail": len(unscaled) - round(len(unscaled)
                                                   * percentile / 100),
        "failures_by_kind": dict(Counter(r.kind for r in failed)),
        "by_subcommand": {
            sub: {"calls": len(rs),
                  "failed": sum(r.kind is not None for r in rs),
                  "p50_s": statistics.median(r.latency for r in rs)}
            for sub, rs in sorted(by_command.items())
        },
        "failure_examples": [
            {"subcommand": r.call.subcommand, "label": r.call.label,
             "kind": r.kind, "problems": r.problems[:2]}
            for r in failed[:6]
        ],
    }


def end_to_end(results, probes, setup: SetupTimer) -> dict:
    """End-to-end metrics; times divided by the host factors."""
    factors = [host_factor(p) for p in probes]
    failed = sum(r.kind is not None for r in results)
    return {
        "setup_s": statistics.median(t / f for t, f in zip(setup.times,
                                                           setup.factors)),
        **timings(call_latencies(results, factors)),
        "ok_ratio": (len(results) - failed) / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def call_class(call) -> str:
    """Breakdown class: the subcommand, with FD calls split by companion size."""
    if call.subcommand != "discretize":
        return call.subcommand
    if call.companion_dim >= 1200:
        return "discretize[D>=1200]"
    return "discretize[D<400]" if call.companion_dim < 400 \
        else "discretize[400<=D<1200]"


def per_layer(tracer: Tracer, results, busy_plain: float,
              busy_traced: float) -> tuple[dict, dict]:
    """Per-layer metrics (means per CLI call) and the per-class breakdown."""
    n = len(results)
    calls = Counter()
    total = defaultdict(float)
    self_time = defaultdict(float)
    by_class = defaultdict(lambda: defaultdict(float))
    class_calls = Counter(call_class(r.call) for r in results)
    for name, call_id, duration, own in tracer.self_times():
        calls[name] += 1
        total[name] += duration
        self_time[name] += own
        cls = call_class(results[call_id].call)
        by_class[cls][name + ".self_s"] += own
        by_class[cls][name + ".calls"] += 1
    metrics = {}
    for name in TIMED_LAYERS:
        metrics[f"{name}.calls"] = calls[name] / n
        metrics[f"{name}.total_s"] = total[name] / n
        metrics[f"{name}.self_s"] = self_time[name] / n
    for name in HANDLERS:
        metrics[f"{name}.self_s"] = self_time[name] / n
    for key in COUNTERS:
        layer, _, counter = key.rpartition(".")
        metrics[key] = tracer.counts[(layer, counter)] / n
    metrics["pencil.nonlinear_eigenvalues_fd.companion_dim"] = tracer.maxima[
        ("pencil.nonlinear_eigenvalues_fd", "companion_dim")]
    metrics["cli.emit_bytes"] = sum(r.out_bytes for r in results) / n
    metrics["trace.calls_per_s_untraced"] = n / busy_plain
    metrics["trace.calls_per_s_traced"] = n / busy_traced
    metrics["trace.overhead_ratio"] = busy_traced / busy_plain

    breakdown = {}
    for cls, values in sorted(by_class.items()):
        count = class_calls[cls]
        # self times partition the root spans, so they sum to the call time
        wall = sum(v for k, v in values.items() if k.endswith(".self_s"))
        shares = {k[:-len(".self_s")]: v / wall for k, v in values.items()
                  if k.endswith(".self_s") and v > 0.0}
        breakdown[cls] = {
            "calls": count,
            "mean_latency_s": wall / count,
            "group_self_share": {g: sum(shares.get(m, 0.0) for m in members)
                                 for g, members in GROUPS.items()},
            "fredholm_factor_zeros_per_call":
                values["scalar.fredholm_factor_zeros.calls"] / count,
            "top_self_share": dict(sorted(shares.items(),
                                          key=lambda kv: -kv[1])[:4]),
        }
    return metrics, breakdown


def emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="'small' shrinks every generated problem and drops "
                             "the anchors; for the self-test only")
    return parser.parse_args(argv)


def passes_for(workload, seconds: float, trace: int) -> int:
    """Passes that fill ``seconds`` at the nominal pass time.

    Untraced runs make at least two, so every call has a best of several;
    traced runs make half as many, since every call runs twice.
    """
    passes = max(round(seconds / workload.pass_seconds), 2)
    return max(passes // 2, 1) if trace else passes


def run(args) -> dict:
    cli = import_cli()
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        emit({"run_record": run_record(args)})
        calls = workload.calls(np.random.default_rng(args.seed), args.scale)
        passes = passes_for(workload, args.seconds, args.trace)
        warm_up(cli.main, workload, work_dir)
        if not args.trace:
            setup = SetupTimer(Path(write_config(
                work_dir / "setup.json", workload.warmup[0].config)))
            schedule = spread(SETUP_STARTS, passes + 1)
            results, _, probes = run_passes(
                cli.main, calls, args, work_dir, passes,
                between=lambda g: setup.start(schedule[g]))
            emit({"summary": summary(results, probes),
                  "setup_starts_s": setup.times,
                  "setup_host_factors": setup.factors})
            metrics = end_to_end(results, probes, setup)
            units = END_TO_END_UNITS
        else:
            tracer = Tracer()
            results, plain, probes = run_passes(cli.main, calls, args,
                                                work_dir, passes,
                                                tracer=tracer)
            metrics, breakdown = per_layer(
                tracer, results, sum(plain), sum(r.latency for r in results))
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans)
            emit({"summary": summary(results, probes),
                  "trace_breakdown": breakdown,
                  "spans_file": str(spans.relative_to(ROOT))})
            units = PER_LAYER_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed = sum(r.kind is not None for r in results)
    return {
        # outputs that fail an oracle are counted in "failed"; a call that
        # ends in a Python traceback makes the whole run incorrect
        "correct": not any(r.kind == "traceback" for r in results),
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
