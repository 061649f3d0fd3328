"""Command-line front end.

    specblock <enclose|angular|basis|soq|mhd|selftest> --input FILE
              [--alpha X] [--n-max K] [--n N] [--subspace-dim M]
              [--seed S] [--out FILE] [--csv DIR]

Reads a problem file, runs the requested pipeline, and emits a JSON report
to stdout or --out (plus per-family CSV tables under --csv).  Exit codes:
0 when no check failed (hypothesis failures count as not-applicable),
1 when any theorem check failed, 2 for unreadable or invalid input.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .basis import bari_sum, projection_decay, riesz_check
from .blocks import best_relative_bound, landmarks
from .checks import ENCLOSE
from .enclosures import soq_bracket, soq_enclosure, soq_misses
from .errors import (
    ArgumentError,
    DegenerateGapError,
    HypothesisError,
    LandmarkError,
    NotAGraphError,
    PairingError,
    ParseError,
    SingularShiftError,
    SpecblockError,
)
from .linalg import operator_norm
from .mhd import discretize, run_report, trial_space
from .problems import ProblemFile, load_problem
from .report import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    Check,
    Report,
    digest_bytes,
    emit_json,
    not_applicable,
    verdict,
)
from .subspaces import (
    GRAPH,
    NOT_GRAPH,
    angular_operator,
    delta_condition,
    graph_test,
    spectral_subspace,
)
from .tolerance import (
    GRAPH_RESIDUAL_TOL,
    GRAPH_TOL,
    RIESZ_TOL,
    SLACK,
    SOQ_MARGIN_REL,
    base_tol,
)
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
    rb = problem.rb if problem.rb is not None else best_relative_bound(block)
    return block, disc, rb


def cmd_enclose(problem: ProblemFile, n_interior: int = DEFAULT_MHD_N) -> list[Check]:
    """Distance bound, windows, resolvent intervals, variational bounds and
    the dimension count over the whole spectrum of one problem."""
    block, _, rb = _resolve(problem, n_interior)
    return [check for build in ENCLOSE for check in build(block, rb)]


def cmd_angular(problem: ProblemFile, alpha: float | None,
                n_interior: int = DEFAULT_MHD_N) -> list[Check]:
    """Graph test, angular operator and the delta condition at one alpha."""
    block, _, rb = _resolve(problem, n_interior)
    spec_a = block.eig_a.eigenvalues
    c = float(block.eig_c.eigenvalues[-1])
    checks = []
    marks = None
    try:
        marks = landmarks(block)
    except (LandmarkError, SingularShiftError):
        pass
    if alpha is None:
        alpha = problem.alpha
    if alpha is None and marks is not None:
        alpha = marks.c_tilde
    if alpha is None:
        return [not_applicable(
            "angular/subspace", "L_(alpha, inf)(M) = {(x, K x)}",
            "no alpha given and no spectrum above c to pick one from")]
    alpha = float(alpha)

    delta_anchor = ("delta = a/(alpha - c) + |a alpha + b| / "
                    "(dist[alpha, sigma(A)] (alpha - c)) < 1/2")
    delta = None
    try:
        delta = delta_condition(alpha, c, spec_a, rb)
        checks.append(Check(
            name="angular/delta", anchor=delta_anchor,
            inputs={"alpha": alpha, "c": c, "a": rb.a, "b": rb.b},
            outputs={"delta": delta},
            status=PASS if delta < 0.5 else NOT_APPLICABLE,
            tolerances={}))
    except HypothesisError as exc:
        checks.append(not_applicable("angular/delta", delta_anchor, str(exc)))

    graph_anchor = "L_(alpha, inf)(M) is the graph of an operator"
    op_anchor = "K = V U+; codim(Dom(K)) = n1 - dim; ||K|| from the restriction"
    try:
        sub = spectral_subspace(block, alpha)
    except ArgumentError as exc:
        checks.append(not_applicable("angular/graph", graph_anchor, str(exc)))
        return checks
    graph = graph_test(sub)
    if graph.verdict == GRAPH:
        graph_status = PASS
    elif graph.verdict == NOT_GRAPH and delta is not None and delta < 0.5:
        graph_status = FAIL  # contradicts the sufficient condition
    else:
        graph_status = NOT_APPLICABLE
    checks.append(Check(
        name="angular/graph", anchor=graph_anchor,
        inputs={"alpha": alpha},
        outputs={"verdict": graph.verdict, "sigma_min": graph.sigma_min,
                 "dim": sub.dim},
        status=graph_status, tolerances={"graph_tol": GRAPH_TOL}))
    try:
        k_op = angular_operator(sub)
    except NotAGraphError as exc:
        checks.append(not_applicable("angular/operator", op_anchor, str(exc)))
        return checks
    residual = operator_norm(k_op.K @ sub.basis_first - sub.basis_second)
    checks.append(Check(
        name="angular/operator", anchor=op_anchor,
        inputs={"alpha": alpha},
        outputs={"norm": k_op.norm, "codim": k_op.codim,
                 "graph_residual": residual},
        status=verdict(residual <= GRAPH_RESIDUAL_TOL),
        tolerances={"residual": GRAPH_RESIDUAL_TOL}))
    codim_anchor = "codim(Dom(K_c)) = kappa"
    if marks is not None and sub.dim == int(marks.lambda_above_c.size):
        checks.append(Check(
            name="angular/codim-kappa", anchor=codim_anchor,
            inputs={"alpha": alpha},
            outputs={"codim": k_op.codim, "kappa": marks.kappa},
            status=verdict(k_op.codim == marks.kappa),
            tolerances={}))
    else:
        checks.append(not_applicable(
            "angular/codim-kappa", codim_anchor,
            "alpha does not isolate the full half line above c"))
    return checks


def cmd_basis(problem: ProblemFile, n_max: int | None,
              n_interior: int = DEFAULT_MHD_N) -> list[Check]:
    """Riesz frame bounds, projection decay and Bari sums for one problem."""
    block, _, rb = _resolve(problem, n_interior)
    checks = []
    try:
        marks = landmarks(block)
    except (LandmarkError, SingularShiftError) as exc:
        return [not_applicable("basis/landmarks",
                               "c = max sigma(C); kappa at c~", str(exc))]
    n_avail = min(n_max or problem.n_max or DEFAULT_N_MAX, marks.rungs)
    sub = spectral_subspace(block, marks.c_tilde)
    riesz_anchor = ("(1 + ||K_c||^2)^{-1} sum |beta_n|^2 <= "
                    "||sum beta_n x_n||^2 <= sum |beta_n|^2")
    try:
        k_op = angular_operator(sub)
        rep = riesz_check(block, sub, k_op)
        checks.append(Check(
            name="basis/riesz", anchor=riesz_anchor,
            inputs={"dim": sub.dim, "kappa": marks.kappa},
            outputs={"gram_min": rep.gram_min, "gram_max": rep.gram_max,
                     "riesz_lower": rep.riesz_lower, "k_norm": rep.k_norm},
            status=verdict(rep.passed),
            tolerances={"margin": RIESZ_TOL}))
    except (NotAGraphError, ArgumentError) as exc:
        checks.append(not_applicable("basis/riesz", riesz_anchor, str(exc)))

    decay_anchor = "||E({mu_{kappa+n}}) - F_n(Delta_n)|| -> 0"
    bari_anchor = ("sum ||y_{kappa+n} - x_n||^2 < inf with "
                   "sum 1/(mu_{n+1} - mu_n)^2 < inf")
    if n_avail < 1:
        checks.append(not_applicable("basis/decay", decay_anchor,
                                     "no eigenvalues above c to track"))
        return checks
    try:
        decay = projection_decay(block, marks, n_avail, rb=rb)
        # for a general block monotone decay is no theorem: the bound decides
        checks.append(Check(
            name="basis/decay", anchor=decay_anchor,
            inputs={"n_max": n_avail},
            outputs={"norms": decay.norms,
                     "deltas": [r.delta for r in decay.records],
                     "bounds": [r.bound for r in decay.records],
                     "m_constant": decay.m_constant},
            status=verdict(decay.within_bound),
            tolerances={"slack": SLACK}))
    except (DegenerateGapError, SingularShiftError) as exc:
        checks.append(not_applicable("basis/decay", decay_anchor, str(exc)))
    try:
        bari = bari_sum(block, marks, n_avail)
        checks.append(Check(
            name="basis/bari", anchor=bari_anchor,
            inputs={"n_max": n_avail},
            outputs={"terms": [r.term for r in bari.records],
                     "partial_sum": float(bari.partial_sums[-1]),
                     "gap_sum": bari.gap_sum, "converged": bari.converged},
            status=verdict(bari.nondecreasing),
            tolerances={}))
    except (PairingError, SingularShiftError) as exc:
        checks.append(not_applicable("basis/bari", bari_anchor, str(exc)))
    return checks


def cmd_soq(problem: ProblemFile, subspace_dim: int | None,
            n_interior: int = DEFAULT_MHD_N) -> list[Check]:
    """Second-order-spectrum enclosures on a deterministic trial subspace."""
    block, disc, rb = _resolve(problem, n_interior)
    spec_a = block.eig_a.eigenvalues
    c = float(block.eig_c.eigenvalues[-1])
    anchor = ("sigma(M) ∩ [Re z - |Im z|^2/(b4p - Re z), "
              "Re z + |Im z|^2/(Re z - a1p)] nonempty for admitted z")
    dim_full = block.n1 + block.n2
    m = min(subspace_dim or dim_full, dim_full)
    bracket = soq_bracket(spec_a, c, rb)
    if bracket is None:
        return [not_applicable("soq/enclosures", anchor,
                               "fewer than two valid pair windows")]
    a1p, b4m, b4p = bracket
    if disc is not None:
        q = trial_space(disc, m)
    else:
        q = np.eye(dim_full, dtype=complex)[:, :m]
    enclosures = soq_enclosure(block, q, a1p, b4m, b4p)
    admitted = [e for e in enclosures if e.admitted]
    misses = [{"re": e.z.real, "im": e.z.imag}
              for e in soq_misses(enclosures, block.eig_m.eigenvalues)]
    return [Check(
        name="soq/enclosures", anchor=anchor,
        inputs={"subspace_dim": m, "a1p": a1p, "b4m": b4m, "b4p": b4p},
        outputs={
            "points": [{"re": e.z.real, "im": e.z.imag,
                        "admitted": e.admitted,
                        "interval": None if e.interval is None
                        else [e.interval.lo, e.interval.hi]}
                       for e in enclosures],
            "admitted_count": len(admitted),
            "misses": misses},
        status=verdict(not misses) if admitted else NOT_APPLICABLE,
        tolerances={"intersection_margin_rel": SOQ_MARGIN_REL})]


def cmd_mhd(problem: ProblemFile, n_interior: int, n_max: int) -> list[Check]:
    if problem.profile is None:
        raise ParseError("the mhd command needs an 'mhd' problem file")
    squared = bool(problem.flags.get("squared_bands", True))
    return run_report(problem.profile, n_interior, n_max,
                      squared_bands=squared)


def _write_csv(report: Report, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    families: dict[str, list[Check]] = {}
    for check in report.checks:
        families.setdefault(check.family, []).append(check)
    for family, checks in sorted(families.items()):
        path = directory / f"{family}.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["name", "status", "anchor", "inputs", "outputs",
                             "tolerances"])
            for check in checks:
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
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--csv", help="directory for per-family CSV tables")

    p = sub.add_parser("enclose", help="spectral enclosure checks")
    common(p)
    p.add_argument("--n", type=_at_least(1), default=DEFAULT_MHD_N,
                   help="interior points when the input is a profile")

    p = sub.add_parser("angular", help="graph subspace and angular operator")
    common(p)
    p.add_argument("--alpha", type=float, help="cut point above max sigma(C)")
    p.add_argument("--n", type=_at_least(1), default=DEFAULT_MHD_N)

    p = sub.add_parser("basis", help="Riesz/Bari basis diagnostics")
    common(p)
    p.add_argument("--n-max", type=_at_least(1), help="how many eigenvalues above c")
    p.add_argument("--n", type=_at_least(1), default=DEFAULT_MHD_N)

    p = sub.add_parser("soq", help="second-order-spectrum enclosures")
    common(p)
    p.add_argument("--subspace-dim", type=_at_least(1), help="trial space dimension")
    p.add_argument("--n", type=_at_least(1), default=DEFAULT_MHD_N)

    p = sub.add_parser("mhd", help="full magnetohydrodynamics pipeline")
    common(p)
    p.add_argument("--n", type=_at_least(1), default=DEFAULT_MHD_N,
                   help="interior points of the discretization")
    p.add_argument("--n-max", type=_at_least(1), help="how many eigenvalues above c")

    p = sub.add_parser("selftest", help="run the built-in property suite")
    common(p, needs_input=False)
    p.add_argument("--seed", type=_at_least(0), default=42)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        base_tol()
    except ValueError as exc:
        print(f"specblock: error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "selftest":
            report = selftest_module.run(args.seed)
        else:
            problem = load_problem(args.input)
            digest = digest_bytes(problem.raw)
            if args.command == "enclose":
                checks = cmd_enclose(problem, args.n)
            elif args.command == "angular":
                checks = cmd_angular(problem, args.alpha, args.n)
            elif args.command == "basis":
                checks = cmd_basis(problem, args.n_max, args.n)
            elif args.command == "soq":
                checks = cmd_soq(problem, args.subspace_dim, args.n)
            elif args.command == "mhd":
                checks = cmd_mhd(problem, args.n,
                                 args.n_max or problem.n_max or DEFAULT_N_MAX)
            else:  # pragma: no cover
                raise ParseError(f"unknown command {args.command}")
            report = Report(tool="specblock", version=__version__,
                            command=args.command, input_digest=digest,
                            checks=checks)
    except (SpecblockError, OSError) as exc:
        print(f"specblock: error: {exc}", file=sys.stderr)
        return 2

    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.csv:
        _write_csv(report, Path(args.csv))
    return 1 if report.worst_status() == FAIL else 0


def entrypoint() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
