"""Benchmark of fcblab: one workload, one seed, one process, one BLAS thread.

    python3 perfbench/run.py --workload sdp_restrict --seed 1 --seconds 40 --trace 0

Run from the root of a checkout that holds src/fcblab.  The run sets up
fcblab (import and warm-up), then repeats whole rounds of the workload's
operations until their summed wall time reaches --seconds, checking every
output apart from the timed calls.  The last line of standard output is one
JSON object: correct, attempted, failed and the metrics, which are the
end-to-end metrics with --trace 0 and the per-layer metrics with --trace 1.
The line before it records the environment.  Both also go to
.perfbench/<workload>-seed<seed>-trace<trace>.json, with the spans of a
traced run.  See perfbench/README.md.
"""

import os

# One BLAS thread, set before numpy loads: at these matrix sizes one thread is
# faster, and it makes iteration counts repeat exactly (Anderson steps amplify
# the last-digit differences that the thread count makes in eigh).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("sdp_restrict", "certify_qsim")
SETUP_SAMPLES = 5  # one in this process, the rest in fresh interpreters
PROBE_TIMEOUT_S = 120

sys.path[:0] = [str(SRC), str(BENCH)]


def set_up(tracer_enabled: bool):
    """Import fcblab and warm up every layer; returns (seconds, warm-up tracer)."""
    start = time.perf_counter()
    import fcblab  # noqa: F401

    import workloads
    from tracing import Tracer

    warm = Tracer(tracer_enabled)
    workloads.warm_up(warm)
    return time.perf_counter() - start, warm


def probe_set_up(workload: str) -> float:
    """Set-up time of a fresh interpreter running only the set-up."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--probe-setup"],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def blas_threads() -> dict:
    """Thread count read back from every OpenBLAS library loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({f.split()[-1] for f in maps if "openblas" in f.lower() and "/" in f})
    except OSError:
        return {}
    names = (
        "openblas_get_num_threads",
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
    )
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in names:
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                found[Path(path).name] = getter()
                break
    return found


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fcblab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    """HEAD of the checkout's own git repository, if it is one."""
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return out.stdout.strip() or None


def environment(args, threads: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": threads,
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def run_batch(workload: str, seed: int, seconds: float, tracer):
    """Whole rounds until the operations' summed wall time reaches `seconds`."""
    import numpy as np

    import workloads
    from checkers import CheckError
    from fcblab import ExtractionError

    make_round = workloads.ROUNDS[workload]
    rng = np.random.default_rng(seed)
    latencies: list[float] = []
    by_op: dict[int, list[float]] = {}  # completed latencies by position in the round
    busy = 0.0
    attempted = failed = rounds = 0
    errors: list[str] = []
    refusals: set[str] = set()
    per_round: list[tuple[int, float]] = []  # (operations completed, busy seconds)
    while rounds == 0 or busy < seconds:
        tracer.round = rounds
        round_start_busy, round_start_failed, round_start_attempted = busy, failed, attempted
        for index, op in enumerate(make_round(rng)):
            tracer.op = index
            attempted += 1
            start = time.perf_counter()
            try:
                result = op.run(tracer)
            except ExtractionError as exc:
                if not op.extraction:
                    raise
                busy += time.perf_counter() - start
                failed += 1
                refusals.add(str(exc))
                continue
            elapsed = time.perf_counter() - start
            busy += elapsed
            latencies.append(elapsed)
            by_op.setdefault(index, []).append(elapsed)
            try:
                op.check(result)
            except CheckError as exc:
                errors.append(f"round {rounds} op {index}: {exc}")
        per_round.append((attempted - round_start_attempted - (failed - round_start_failed), busy - round_start_busy))
        rounds += 1
    return {
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "busy_s": busy,
        "latencies": latencies,
        "op_means": [statistics.fmean(by_op[i]) for i in sorted(by_op)],
        "per_round": per_round,
        "errors": errors,
        "refusals": sorted(refusals),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help="print set-up seconds and exit")
    args = parser.parse_args(argv)

    if not (SRC / "fcblab" / "__init__.py").is_file():
        print(f"error: no fcblab sources under {SRC}", file=sys.stderr)
        return 2

    setup_s, warm = set_up(args.trace == 1)
    if args.probe_setup:
        print(repr(setup_s))
        return 0
    threads = blas_threads()
    if any(count != 1 for count in threads.values()):
        print(f"error: BLAS runs {threads} threads, the benchmark needs 1", file=sys.stderr)
        return 2
    setup_samples = [setup_s] + [probe_set_up(args.workload) for _ in range(SETUP_SAMPLES - 1)]

    from tracing import Tracer, per_layer_metrics

    tracer = Tracer(args.trace == 1)
    batch = run_batch(args.workload, args.seed, args.seconds, tracer)
    completed = batch["attempted"] - batch["failed"]
    end_to_end = {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "throughput_ops_s": {"value": completed / batch["busy_s"], "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(batch["op_means"]) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    metrics = end_to_end
    if args.trace == 1:
        metrics = per_layer_metrics(tracer, warm, batch["rounds"])
    for message in batch["errors"][:10]:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": not batch["errors"],
        "attempted": batch["attempted"],
        "failed": batch["failed"],
        "metrics": metrics,
    }
    env = environment(args, threads)
    record = {
        "env": env,
        "result": result,
        "end_to_end": end_to_end,
        "rounds": batch["rounds"],
        "busy_s": batch["busy_s"],
        "per_round": batch["per_round"],
        "latencies_s": batch["latencies"],
        "op_mean_latencies_s": batch["op_means"],
        "setup_samples_s": setup_samples,
        "refusals": batch["refusals"],
        "check_failures": len(batch["errors"]),
    }
    if args.trace == 1:
        record["spans"] = [
            {"layer": layer, "round": rnd, "op": op, "start": start, "end": end, **info}
            for layer, rnd, op, start, end, info in tracer.spans
        ]
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
