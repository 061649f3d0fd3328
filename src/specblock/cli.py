"""Command-line front end.

    specblock <enclose|angular|basis|soq|mhd|selftest> --input FILE
              [--alpha X] [--n-max K] [--n N] [--subspace-dim M]
              [--seed S] [--out FILE] [--csv DIR]

Reads a problem file, runs the requested pipeline, and emits a JSON report
to stdout or --out (plus per-family CSV tables under --csv).  Exit codes:
0 when no check failed (hypothesis failures count as not-applicable),
1 when any theorem check failed, 2 for unreadable or invalid input and for
a report or CSV table that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import __version__, checks
from .blocks import best_relative_bound, relative_bound_margin
from .enclosures import soq_bracket
from .errors import ArgumentError, ParseError, SpecblockError
from .mhd import discretize, run_report, trial_space
from .problems import ProblemFile, load_problem
from .report import FAIL, Check, Report, digest_bytes, emit_json
from .tolerance import BASE_TOL, matrix_tol
from . import selftest as selftest_module

DEFAULT_MHD_N = 64
DEFAULT_N_MAX = 6


def _resolve(problem: ProblemFile, n_interior: int):
    """The working block (direct blocks, or a discretized profile), the
    discretization if there is one, and the relative bound in force."""
    block, disc = problem.block, None
    if block is None:
        disc = discretize(problem.profile, n_interior)
        block = disc.block
    if problem.rb is None:
        return block, disc, best_relative_bound(block)
    return block, disc, _checked_rb(block, problem.rb)


def _checked_rb(block, rb):
    """A problem file's rb, once BB* ⪯ aA + bI holds for the block up to
    BASE_TOL n1 max(a max|A| + b, max|BB*|): no theorem applies otherwise."""
    pair = f"'rb' = [{rb.a:.6g}, {rb.b:.6g}]"
    tol = max(rb.a * matrix_tol(block.A) + rb.b * BASE_TOL * block.n1,
              matrix_tol(block.coupling_gram))
    try:
        margin = relative_bound_margin(block, rb)
    except ArgumentError as exc:
        raise ParseError(f"{pair} cannot be checked: {exc}") from exc
    if margin < -tol:
        raise ParseError(
            f"{pair} is not a relative bound for the blocks: "
            f"lambda_min(aA + bI - BB*) = {margin:.3e} is below -{tol:.3e}")
    return rb


def cmd_enclose(problem: ProblemFile, n_interior: int = DEFAULT_MHD_N) -> list[Check]:
    """The ENCLOSE families, in that order, on the problem's block."""
    block, _, rb = _resolve(problem, n_interior)
    return [check for build in checks.ENCLOSE for check in build(block, rb)]


def cmd_angular(problem: ProblemFile, alpha: float | None,
                n_interior: int = DEFAULT_MHD_N) -> list[Check]:
    """The angular checks at --alpha, else the problem's alpha, else c~."""
    alpha = problem.alpha if alpha is None else alpha
    if alpha is not None and not np.isfinite(alpha):
        raise ArgumentError(f"'alpha' must be finite, not {alpha}")
    block, _, rb = _resolve(problem, n_interior)
    return checks.angular(block, rb, alpha)


def cmd_basis(problem: ProblemFile, n_max: int | None,
              n_interior: int = DEFAULT_MHD_N) -> list[Check]:
    """The basis checks on --n-max rungs, else the problem's n_max, else 6."""
    block, _, rb = _resolve(problem, n_interior)
    return checks.basis(block, rb, n_max or problem.n_max or DEFAULT_N_MAX)


def cmd_soq(problem: ProblemFile, subspace_dim: int | None,
            n_interior: int = DEFAULT_MHD_N) -> list[Check]:
    """The soq check on the profile's low modes, else the first unit vectors."""
    block, disc, rb = _resolve(problem, n_interior)
    dim_full = block.n1 + block.n2
    m = min(subspace_dim or dim_full, dim_full)
    bracket = soq_bracket(block.ladder(rb))
    q = (np.eye(dim_full, dtype=complex)[:, :m] if disc is None
         else trial_space(disc, m))
    return checks.soq(block, q, bracket)


def cmd_mhd(problem: ProblemFile, n_interior: int, n_max: int) -> list[Check]:
    if problem.profile is None:
        raise ParseError("the mhd command needs an 'mhd' problem file")
    squared = problem.flags.get("squared_bands", True)
    if not isinstance(squared, bool):
        raise ParseError("flag 'squared_bands' must be true or false")
    return run_report(discretize(problem.profile, n_interior), n_max,
                      squared_bands=squared)


def _write_csv(report: Report, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    families: dict[str, list[Check]] = {}
    for check in report.checks:
        families.setdefault(check.family, []).append(check)
    for family, rows in sorted(families.items()):
        path = directory / f"{family}.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["name", "status", "anchor", "inputs", "outputs",
                             "tolerances"])
            for check in rows:
                writer.writerow([check.name, check.status, check.anchor,
                                 emit_json(check.inputs),
                                 emit_json(check.outputs),
                                 emit_json(check.tolerances)])


def _at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{value} is below {minimum}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specblock",
        description="Spectral enclosures and basis diagnostics for "
                    "self-adjoint 2x2 block operator matrices.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="problem file (JSON)")
            p.add_argument("--n", type=_at_least(1), default=DEFAULT_MHD_N,
                           help="interior points when the input is a profile")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--csv", help="directory for per-family CSV tables")

    p = sub.add_parser("enclose", help="spectral enclosure checks")
    common(p)

    p = sub.add_parser("angular", help="graph subspace and angular operator")
    common(p)
    p.add_argument("--alpha", type=float, help="cut point above max sigma(C)")

    p = sub.add_parser("basis", help="Riesz/Bari basis diagnostics")
    common(p)
    p.add_argument("--n-max", type=_at_least(1), help="how many eigenvalues above c")

    p = sub.add_parser("soq", help="second-order-spectrum enclosures")
    common(p)
    p.add_argument("--subspace-dim", type=_at_least(1), help="trial space dimension")

    p = sub.add_parser("mhd", help="full magnetohydrodynamics pipeline")
    common(p)
    p.add_argument("--n-max", type=_at_least(1), help="how many eigenvalues above c")

    p = sub.add_parser("selftest", help="run the built-in property suite")
    common(p, needs_input=False)
    p.add_argument("--seed", type=_at_least(0), default=42)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            report = selftest_module.run(args.seed)
        else:
            problem = load_problem(args.input)
            digest = digest_bytes(problem.raw)
            if args.command == "enclose":
                found = cmd_enclose(problem, args.n)
            elif args.command == "angular":
                found = cmd_angular(problem, args.alpha, args.n)
            elif args.command == "basis":
                found = cmd_basis(problem, args.n_max, args.n)
            elif args.command == "soq":
                found = cmd_soq(problem, args.subspace_dim, args.n)
            elif args.command == "mhd":
                found = cmd_mhd(problem, args.n,
                                args.n_max or problem.n_max or DEFAULT_N_MAX)
            else:  # pragma: no cover
                raise ParseError(f"unknown command {args.command}")
            report = Report(tool="specblock", version=__version__,
                            command=args.command, input_digest=digest,
                            checks=found)
        text = report.to_json()
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        if args.csv:
            _write_csv(report, Path(args.csv))
    except (SpecblockError, OSError) as exc:
        print(f"specblock: error: {exc}", file=sys.stderr)
        return 2
    return 1 if report.worst_status() == FAIL else 0


def entrypoint() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
