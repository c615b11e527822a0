"""The bandpos benchmark: one workload, one seed, one closed loop.

Usage, from the root of a checkout that holds ``src/bandpos``:

    python3 perfbench/run.py --workload band-verdicts --seed 1 --seconds 20 --trace 0

The run builds its inputs from the seed (numpy only, see gen.py), then runs
whole passes over the workload's operations in one thread, one operation at
a time, until the passes have taken ``--seconds`` and at least MIN_OPS
operations were made; between passes it measures set-up time in fresh
interpreters (cold.py).  Every
answer is then checked against its known answer.  With ``--trace 1`` one
more pass runs with spans around each bandpos call, its spans are written to
.bench_trace/ and the per-layer metrics are printed instead of the
end-to-end ones.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it give the machine, the
sample count and each failure kind.  Exit code 2 means the run could not
start (no bandpos source beside perfbench/), 3 that a traced self-check
failed; neither prints a result.
"""

from __future__ import annotations

import os

# One caller on two cores and nothing else: BLAS may not start threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import importlib
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = {
    "band-verdicts": "band_verdicts",
    "probe-sweep": "probe_sweep",
    "chordal-patterns": "chordal_patterns",
    "cli-exact": "cli_exact",
}

SPANS = (
    "bandmat.matrix_from_json",
    "bandmat.hadamard_power",
    "bandmat.split_pentadiagonal",
    "positivity.classify_positivity",
    "positivity.min_eigenvalue",
    "positivity.leading_principal_minors",
    "positivity.sym_eigenvalues",
    "positivity.determinant",
    "chainseq.wall_wetzel_pd",
    "chainseq.minimal_parameters",
    "preservers.probe_preserves",
    "preservers.random_pd",
    "preservers.is_id",
    "preservers.id_numeric_probe",
    "graphs.graph_from_text",
    "graphs.is_chordal",
    "graphs.max_near_clique",
    "graphs.chordal_critical_exponent",
    "cli.check-positivity",
    "cli.hadamard",
    "cli.chain",
    "cli.critical-exponent",
    "cli.id-check",
    "cli.counterexample",
    "cli.probe",
)

# Enough operations that at least ten lie beyond the 90th percentile.
MIN_OPS = 110
COLD_RUNS = 11


class StartError(Exception):
    pass


class SelfCheckError(Exception):
    pass


def import_bandpos():
    """Import bandpos from this checkout's src/, never from elsewhere."""
    if not (SRC / "bandpos" / "__init__.py").is_file():
        raise StartError(f"no bandpos source at {SRC / 'bandpos'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import bandpos

    if Path(bandpos.__file__).resolve().parent != (SRC / "bandpos").resolve():
        raise StartError(f"bandpos imported from {bandpos.__file__}, not from {SRC}")


BLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in BLAS_THREAD_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def cold_setup(workload: str, seed: int, workdir: Path, k: int) -> float:
    """Import plus first op in fresh interpreter number k."""
    child_dir = workdir / f"cold{k}"
    child_dir.mkdir()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "cold.py"), workload, str(seed), str(child_dir)],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    if proc.returncode != 0:
        raise StartError(f"cold set-up run failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["ok"]:
        raise StartError(f"cold set-up run gave a wrong answer: {result['failure']}")
    return result["setup_s"]


class Grader:
    """Checks every attempt as it is made.  The first attempt of each
    operation is checked against its known answer; later attempts must
    repeat its value exactly.  Only the first value of each operation is
    kept, so memory does not grow with the number of passes."""

    def __init__(self, ops):
        self.ops = ops
        self.first: dict[int, tuple] = {}
        self.failures: list = []
        self.attempted = 0

    def add(self, i: int, value, error) -> None:
        from ops import Failure, wrong

        self.attempted += 1
        if error is not None:
            self.failures.append(Failure("raised", f"{self.ops[i].label}: {type(error).__name__}: {error}"))
            return
        if i not in self.first:
            self.first[i] = (value, self.ops[i].check(value))
        reference, verdict = self.first[i]
        if value != reference:
            self.failures.append(wrong(f"{self.ops[i].label}: answer changed between repeats"))
        elif verdict is not None:
            self.failures.append(verdict)


def attempt(op, tracer):
    try:
        return op.run(tracer), None
    except Exception as exc:  # counted as a failed operation
        return None, exc


def timed_loop(ops, order, seconds: float, min_ops: int, grader: Grader, between=None):
    """Whole passes until they have taken ``seconds`` and min_ops were made.
    After each pass, ``between(share)`` gets the share of ``seconds`` done;
    its own time is not counted.  Returns the op index and the latency of
    each attempt, in order, and the pass walls."""
    from spans import NullTracer

    tracer = NullTracer()
    indices, latencies, walls = array("i"), array("d"), []
    while True:
        pass_start = time.perf_counter()
        for i in order:
            t0 = time.perf_counter()
            value, error = attempt(ops[i], tracer)
            latencies.append(time.perf_counter() - t0)
            indices.append(i)
            grader.add(i, value, error)
        walls.append(time.perf_counter() - pass_start)
        if between is not None:
            between(min(1.0, sum(walls) / seconds) if seconds > 0 else 1.0)
        if sum(walls) >= seconds and len(latencies) >= min_ops:
            return indices, latencies, walls


def latency_stats(indices, latencies, walls):
    """Each operation's best latency over the run's passes, and the figures
    built on them: ops/s of a pass made at those latencies, and the 50th and
    90th percentiles over the operations of a pass.

    The host is shared, and its speed comes in two states: most of the time
    every operation takes 1.7-2.1 times its best latency, and in short
    stretches 1.1-1.3 times, in proportions that change from one half-minute
    to the next.  Means and percentiles pooled over all attempts follow that
    proportion; an operation's minimum over many passes does not, because
    noise on a single-threaded, CPU-bound call only adds time.  The pooled
    wall-clock figures are still reported on the sample line."""
    best: dict[int, float] = {}
    for i, latency in zip(indices, latencies):
        best[i] = min(latency, best.get(i, latency))
    per_op = sorted(best.values())
    p90 = statistics.quantiles(per_op, n=10)[-1] if len(per_op) > 1 else per_op[0]
    return {
        "ops_per_s": len(per_op) / sum(per_op),
        "p50": statistics.median(per_op),
        "p90": p90,
        "beyond_p90": sum(best[i] > p90 for i in indices),
        "wall_ops_per_s": len(latencies) / sum(walls),
        "wall_p50": statistics.median(latencies),
        "wall_p90": statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0],
    }


def traced_pass(ops, order, grader: Grader):
    from spans import Tracer

    tracer = Tracer()
    for op_id, i in enumerate(order):
        tracer.begin_op(op_id)
        value, error = attempt(ops[i], tracer)
        tracer.end_op()
        grader.add(i, value, error)
    return tracer


def run(workload: str, seed: int, seconds: float, trace: bool, adjust_ops=None, min_ops: int = MIN_OPS):
    """Run one workload; returns (report lines, result object).

    ``adjust_ops`` maps the built operation list to the one measured and
    ``min_ops`` lowers the sample floor; both exist for the smoke test.
    Raises StartError when the run cannot start and SelfCheckError when a
    traced self-check fails.
    """
    from ops import SEED_FAILURES
    from spans import summarize

    module = importlib.import_module(WORKLOADS[workload])
    os.environ.update(getattr(module, "ENV", {}))
    workdir = Path.cwd() / ".bench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = module.build(seed, workdir)
        if adjust_ops is not None:
            ops = adjust_ops(ops)
        order = list(range(len(ops)))
        random.Random(seed).shuffle(order)
        # The cold set-ups are spread over the loop, the first after its
        # first pass and the last at its end, so that their median sees the
        # same mix of host states as the operations do.
        setup_times: list[float] = []

        def cold_setups(share: float) -> None:
            while len(setup_times) < 1 + int(share * (COLD_RUNS - 1)):
                setup_times.append(cold_setup(workload, seed, workdir, len(setup_times)))

        grader = Grader(ops)
        indices, latencies, walls = timed_loop(ops, order, seconds, min_ops, grader, cold_setups)
        cold_setups(1.0)
        setup_s = statistics.median(setup_times)
        if trace:
            tracer = traced_pass(ops, order, grader)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    failures = grader.failures
    unexpected = [f for f in failures if f.kind not in SEED_FAILURES]
    kinds = Counter(f.kind for f in failures)
    timing = latency_stats(indices, latencies, walls)
    lines = [
        json.dumps({"machine": machine_facts()}),
        json.dumps(
            {
                "workload": workload,
                "seed": seed,
                "ops_per_pass": len(ops),
                "passes": len(walls),
                "samples": len(latencies),
                "beyond_p90": timing["beyond_p90"],
                "wall_clock_pooled": {
                    "ops_per_s": timing["wall_ops_per_s"],
                    "op_p50_ms": timing["wall_p50"] * 1e3,
                    "op_p90_ms": timing["wall_p90"] * 1e3,
                },
                "loop": "closed, one caller, no threads",
                "failures_by_kind": kinds,
            }
        ),
    ]
    lines += [
        f"expected seed failure {kind} x{count}: {SEED_FAILURES[kind]}"
        for kind, count in kinds.items()
        if kind in SEED_FAILURES
    ]
    lines += [f"FAILED {f.kind}: {f.message}" for f in unexpected[:20]]

    if not trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (timing["ops_per_s"], "1/s"),
            "op_p50_ms": (timing["p50"] * 1e3, "ms"),
            "op_p90_ms": (timing["p90"] * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        if tracer.self_check_failures:
            raise SelfCheckError("\n".join(tracer.self_check_failures))
        trace_dir = Path.cwd() / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        trace_path = trace_dir / f"{workload}-seed{seed}.json"
        tracer.write(trace_path)
        lines.append(f"spans written to {trace_path.relative_to(Path.cwd())}")
        stats, traced_wall, traced_ops = summarize(tracer.spans, SPANS)
        metrics = {}
        for name in SPANS:
            metrics[f"{name}.calls"] = (stats[name]["calls"], "count")
            metrics[f"{name}.self_ms"] = (stats[name]["self_ms"], "ms")
            metrics[f"{name}.share"] = (stats[name]["share"], "fraction")
        probe_time = sum(lat for i, lat in zip(indices, latencies) if ops[i].samples)
        probe_samples = sum(ops[i].samples for i in indices)
        metrics["preservers.samples_per_s"] = (probe_samples / probe_time if probe_time else 0.0, "1/s")
        metrics["tracing.overhead_ops_per_s"] = (traced_ops / traced_wall - timing["wall_ops_per_s"], "1/s")

    result = {
        "correct": not unexpected,
        "attempted": grader.attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_bandpos()
        lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except StartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SelfCheckError as exc:
        print(f"traced self-check failed, run not reported:\n{exc}", file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
