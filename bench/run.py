"""specblock benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload mhd-profile --seed 1 --seconds 20 --trace 0

Each run starts a fresh worker process (``worker.py``) that generates the
workload's inputs from the seed, runs one cold job and then a closed loop
with one caller: the next job starts only when the previous one has
finished, as a user of a batch verifier waits for each report.  A job goes
through ``specblock.cli.main`` in-process with ``--out`` to a file.

``--trace 0`` reports the end-to-end metrics: ``job_s.p50`` (median warm job
wall time), ``setup_s`` (worker start to ready, including import, input
generation and the cold job; the median of several set-ups) and
``peak_rss_mb`` (peak resident memory of the timed worker).  ``--trace 1``
runs half of the time untraced and half with spans around every public
layer function, and reports the per-layer metrics of ``tracing.py``.

Every job passes a correctness gate (exit code 0, no failed check, the
expected verdict list, report bytes equal to the first job's) and one
result per workload is checked against a plain numpy oracle.  The last line
of stdout is the JSON result; the line before it is the run record with the
machine, the per-job times and any failure reasons.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MARK = b"@bench "  # starts every line a worker sends
WORKLOADS = ("mhd-profile", "selftest", "block-sweep")
SETUPS = 3
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# The program reads these; a run must not inherit them.
PROGRAM_VARS = ("SPECBLOCK_TOL", "SPECBLOCK_SELFTEST_CORRUPT")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def worker_env(threads: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_VARS}
    for key in BLAS_THREAD_VARS:
        env[key] = str(threads)
    return env


def spawn(args, mode: str, env: dict, deadline: float) -> dict:
    """Run one worker to its end; return its messages by kind, with
    ``setup_s`` added to ``ready``: the time from start to that line."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--mode", mode]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    messages: dict = {}
    pending = b""
    try:
        while True:
            remaining = deadline - monotonic()
            readable, _, _ = select.select([proc.stdout], [], [],
                                           max(remaining, 0.0))
            if not readable:
                raise BenchError(f"{mode} worker ran past the deadline")
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            pending += chunk
            while b"\n" in pending:
                line, pending = pending.split(b"\n", 1)
                if line.startswith(MARK):
                    message = json.loads(line[len(MARK):])
                    if message["kind"] == "ready":
                        message["setup_s"] = perf_counter() - start
                    messages[message["kind"]] = message
        code = proc.wait(timeout=max(deadline - monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    wanted = {"ready"} if mode == "setup" else {"ready", "result"}
    if code != 0 or not wanted <= messages.keys():
        raise BenchError(f"{mode} worker exited with code {code} and sent "
                         f"{sorted(messages)}")
    return messages


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> tuple[dict, dict]:
    """One run; returns (run record, result)."""
    if not (ROOT / "src" / "specblock" / "__init__.py").is_file():
        raise BenchError(f"no specblock sources under {ROOT / 'src'}")
    deadline = monotonic() + DEADLINE_S
    threads = nproc()
    env = worker_env(threads)
    first = spawn(args, "trace" if args.trace else "full", env, deadline)
    readies = [first["ready"]]
    if not args.trace:
        readies += [spawn(args, "setup", env, deadline)["ready"]
                    for _ in range(SETUPS - 1)]
    result = first["result"]
    loops = [result["untraced"]] + ([result["traced"]] if args.trace else [])
    cold_failed = sum(1 for ready in readies if ready["reasons"])
    attempted = len(readies) + sum(loop["attempted"] for loop in loops)
    failed = cold_failed + sum(loop["failed"] for loop in loops)
    job_s = result["untraced"]["job_s"]
    if args.trace:
        metrics = {name: metric(result["layers"][name], unit)
                   for name, unit, _ in tracing.layer_metrics()}
    else:
        metrics = {
            "job_s.p50": metric(statistics.median(job_s), "s"),
            "setup_s": metric(statistics.median(r["setup_s"] for r in readies),
                              "s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        }
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": {"nproc": threads, "cpu": cpu_model(),
                    "python": platform.python_version(),
                    **result["machine"]},
        "job_s": job_s,
        "traced_job_s": result["traced"]["job_s"] if args.trace else None,
        "setup_s": [r["setup_s"] for r in readies],
        "cold_s": [r["cold_s"] for r in readies],
        "checks_per_job": result["checks"],
        "failed_frac": failed / attempted,
        "failures": [r for ready in readies for r in ready["reasons"]]
                    + [r for loop in loops for r in loop["reasons"]],
        "oracle": result["oracle"] or "ok",
    }
    final = {"correct": failed == 0 and not result["oracle"],
             "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        record, final = run(args)
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1
    print(f"# job_s: {len(record['job_s'])} warm jobs")
    print(f"# failed_frac = {record['failed_frac']:.6g} "
          f"({final['failed']} of {final['attempted']} jobs)")
    for name, entry in final["metrics"].items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"record": record}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
