"""One benchmark worker: set up a workload, then run its jobs in a closed loop.

Started by ``run.py`` in a fresh process with a cleaned environment.  It
imports specblock from the checkout's ``src``, generates the inputs from the
seed, runs one cold job and reports ``ready``.  In ``full`` mode it then runs
warm jobs for the given seconds, one at a time; in ``trace`` mode it runs
half of them untraced and half traced.  Results go to stdout as lines that
start with ``@bench ``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
MARK = "@bench "
# Failure reasons kept in the run record; the count is always complete.
KEPT_REASONS = 5


def send(kind: str, payload: dict) -> None:
    print(MARK + json.dumps({"kind": kind, **payload}), flush=True)


@dataclass
class Outcome:
    seconds: float
    codes: list[int]
    reports: list[bytes]
    error: str | None = None
    totals: dict = field(default_factory=dict)


def run_job(cli, job, tracer=None) -> Outcome:
    """Run every command of one job through ``cli.main``; parsing, computing
    and writing each report fall inside the measured time."""
    for path in job.outputs:
        path.unlink(missing_ok=True)
    codes, error = [], None
    if tracer is not None:
        tracer.open_root()
    start = perf_counter()
    try:
        for argv in job.commands:
            codes.append(cli.main(argv))
    except (Exception, SystemExit) as exc:
        error = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    totals = tracer.close_root() if tracer is not None else {}
    reports = [p.read_bytes() if p.exists() else b"" for p in job.outputs]
    return Outcome(seconds, codes, reports, error, totals)


def failures(outcome: Outcome, expected: list[tuple[str, str]],
             reference: list[bytes] | None) -> list[str]:
    """Why a job failed; empty when it passed the correctness gate."""
    if outcome.error is not None:
        return [f"raised {outcome.error}"]
    reasons = [f"exit code {code}" for code in outcome.codes if code != 0]
    try:
        found = workloads.verdicts(outcome.reports)
    except (ValueError, KeyError, TypeError) as exc:
        return reasons + [f"unreadable report: {exc}"]
    failed = [name for name, status in found if status == "fail"]
    if failed:
        reasons.append(f"checks failed: {failed[:3]}")
    if found != expected:
        reasons.append("verdicts differ from the expected list")
    if reference is not None and outcome.reports != reference:
        reasons.append("report bytes differ from the first job")
    return reasons


def closed_loop(cli, job, seconds: float, expected, reference,
                tracer=None) -> list[tuple[Outcome, list[str]]]:
    """One caller: start the next job after the last one finished, while the
    next is expected to end within ``seconds``; at least one job runs."""
    done: list[tuple[Outcome, list[str]]] = []
    start = perf_counter()
    while True:
        outcome = run_job(cli, job, tracer)
        done.append((outcome, failures(outcome, expected, reference)))
        typical = statistics.median(o.seconds for o, _ in done)
        if perf_counter() - start + typical > seconds:
            return done


def blas_record() -> dict:
    import numpy as np

    record = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        record["blas"] = "unknown"
    record["threads"] = {key: value for key, value in os.environ.items()
                         if key.endswith("_NUM_THREADS")}
    return record


def summarize(done) -> dict:
    times = [o.seconds for o, _ in done]
    failed = [reasons for _, reasons in done if reasons]
    return {"job_s": times, "attempted": len(done), "failed": len(failed),
            "reasons": [r for reasons in failed for r in reasons][:KEPT_REASONS]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "full", "trace"),
                        required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from specblock import cli

    source = Path(cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"worker: specblock imported from {source}, not from the "
              "checkout", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        job = workloads.make_job(args.workload, args.seed, workdir)
        cold = run_job(cli, job)
        try:
            cold_verdicts = workloads.verdicts(cold.reports)
        except (ValueError, KeyError, TypeError):
            cold_verdicts = []
        expected = cold_verdicts if job.expected is None else job.expected
        cold_reasons = failures(cold, expected, None)
        send("ready", {"cold_s": cold.seconds, "reasons": cold_reasons})
        if args.mode == "setup":
            return 0
        reference = cold.reports
        result: dict = {"machine": blas_record(),
                        "checks": len(cold_verdicts)}
        if args.mode == "full":
            done = closed_loop(cli, job, args.seconds, expected, reference)
            result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                     .ru_maxrss / 1024.0)
            result["untraced"] = summarize(done)
        else:
            plain = closed_loop(cli, job, args.seconds / 2, expected,
                                reference)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = closed_loop(cli, job, args.seconds / 2, expected,
                                     reference, tracer)
            finally:
                tracer.uninstall()
            result["untraced"] = summarize(plain)
            result["traced"] = summarize(traced)
            layers = {name: statistics.median(o.totals.get(name, 0.0)
                                              for o, _ in traced)
                      for name, _, _ in tracing.layer_metrics()}
            layers["report.checks"] = result["checks"]
            layers["trace.overhead"] = (
                statistics.median(result["traced"]["job_s"])
                / statistics.median(result["untraced"]["job_s"]) - 1.0)
            result["layers"] = layers
        try:
            result["oracle"] = job.oracle(job, reference)
        except (ValueError, KeyError, TypeError, StopIteration) as exc:
            result["oracle"] = [f"oracle could not read the report: {exc!r}"]
        send("result", result)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another worker still uses it


if __name__ == "__main__":
    sys.exit(main())
