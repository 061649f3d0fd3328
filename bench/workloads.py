"""Seeded inputs, job command lines, expected verdicts and oracles.

Each workload turns a seed into problem files in a work directory and a
*job*: the list of ``specblock`` command lines one verification runs.  The
program sees only the generated files.  The oracles here recompute one
result per workload with plain numpy, outside the timed loop.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MHD_N = 256
MHD_N_MAX = 6
MHD_GRID = 257
MHD_CHECKS = [
    "mhd/relative-bound", "mhd/essential-bands", "mhd/landmarks",
    "mhd/dist-bound", "mhd/variational-bounds", "mhd/gap-growth",
    "mhd/angular-operator", "mhd/riesz-bounds", "mhd/projection-decay",
    "mhd/bari-sums",
]

SWEEP_N1 = 200
SWEEP_N2 = 100
SWEEP_COMMANDS = [
    ["enclose"],
    ["angular"],
    ["basis", "--n-max", "8"],
    ["soq", "--subspace-dim", "40"],
]

SELFTEST_CHECKS = [
    "fixtures/cubic", "numeric-core/contracts", "block-model/schur-spectrum",
    "block-model/resolvent-blocks", "block-model/relative-bound",
    "enclosures/dist-bound", "enclosures/inclusion-windows",
    "enclosures/exclusion-windows", "enclosures/resolvent-windows",
    "enclosures/degenerate-forms", "enclosures/window-monotonicity",
    "enclosures/variational-bounds", "enclosures/dim-check", "enclosures/soq",
    "invariant-subspace/codim-kappa", "invariant-subspace/gram-bounds",
    "invariant-subspace/delta-soundness",
    "invariant-subspace/extension-consistency",
    "invariant-subspace/shifted-family", "basis-analysis/decay-bound",
    "basis-analysis/bari-terms", "basis-analysis/phase-invariance",
    "mhd/closed-form-constants", "mhd/sturm-liouville-eigs",
    "mhd/dist-bound-continuum", "mhd/constants-soundness", "mhd/gap-growth",
    "mhd/codim-kappa", "mhd/projection-decay", "mhd/bari-ratio",
    "mhd/resolution-consistency", "mhd/decoupled-degenerate",
]

# The cubic fixture of the selftest: [[2, 0, 1], [0, 10, 1], [1, 1, -1]] has
# the characteristic polynomial x^3 - 11 x^2 + 6 x + 32.
CUBIC = [1.0, -11.0, 6.0, 32.0]


@dataclass
class Job:
    """One user-level verification: command lines plus what must hold."""

    commands: list[list[str]]
    outputs: list[Path]
    # None: the verdicts of the run's first job, which must hold no fail.
    expected: list[tuple[str, str]] | None
    oracle: Callable[["Job", list[bytes]], list[str]]
    problem: Path | None = None


def verdicts(report_bytes: list[bytes]) -> list[tuple[str, str]]:
    """(name, status) of every check, in report order, across a job's reports."""
    out = []
    for raw in report_bytes:
        for check in json.loads(raw)["checks"]:
            out.append((check["name"], check["status"]))
    return out


def _mhd_job(seed: int, workdir: Path) -> Job:
    # Density linear and va^2 sinusoidal; the amplitude ranges keep every
    # check of the pipeline at pass.
    rng = np.random.default_rng(seed)
    slope = float(rng.uniform(0.2, 0.8))
    wobble = float(rng.uniform(0.1, 0.4))
    x = np.linspace(0.0, 1.0, MHD_GRID)
    problem = {"mhd": {
        "grid_n": MHD_GRID,
        "rho": (1.0 + slope * x).tolist(),
        "va2": (1.0 + wobble * np.sin(np.pi * x)).tolist(),
        "vs2": "constant", "kperp": "constant", "kpar": "constant",
        "g": 0.3,
    }}
    path = workdir / "profile.json"
    path.write_text(json.dumps(problem))
    out = workdir / "mhd.json"
    argv = ["mhd", "--input", str(path), "--n", str(MHD_N),
            "--n-max", str(MHD_N_MAX), "--out", str(out)]
    return Job([argv], [out], [(name, "pass") for name in MHD_CHECKS],
               _mhd_oracle, path)


def _mhd_oracle(job: Job, reports: list[bytes]) -> list[str]:
    from specblock.blocks import assemble
    from specblock.mhd import discretize
    from specblock.problems import load_problem

    block = discretize(load_problem(job.problem).profile, MHD_N).block
    c = float(np.linalg.eigvalsh(block.C)[-1])
    spec_m = np.linalg.eigvalsh(assemble(block))
    count = int(np.sum(spec_m > c + 1e-12 * np.max(np.abs(spec_m))))
    landmarks = next(ch for ch in json.loads(reports[0])["checks"]
                     if ch["name"] == "mhd/landmarks")["outputs"]
    problems = []
    if abs(landmarks["c_discrete"] - c) > 1e-9 * max(1.0, abs(c)):
        problems.append(f"c_discrete {landmarks['c_discrete']!r} != "
                        f"eigvalsh {c!r}")
    if landmarks["eigenvalues_above_c"] != count:
        problems.append(f"eigenvalues_above_c {landmarks['eigenvalues_above_c']}"
                        f" != eigvalsh count {count}")
    return problems


def _unitary(rng, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitian(u: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    mat = (u * spectrum) @ u.conj().T
    return 0.5 * (mat + mat.conj().T)


def _pairs(mat: np.ndarray) -> list:
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def sweep_ladder() -> np.ndarray:
    """The exact spectrum of the generated A block: 1 + k^2/2."""
    return 1.0 + np.arange(SWEEP_N1) ** 2 / 2.0


def _sweep_job(seed: int, workdir: Path) -> Job:
    rng = np.random.default_rng(seed)
    a = _hermitian(_unitary(rng, SWEEP_N1), sweep_ladder())
    gamma = -2.0 - np.sort(rng.uniform(0.0, 10.0, SWEEP_N2))
    gamma[0] = -2.0
    c = _hermitian(_unitary(rng, SWEEP_N2), gamma)
    b = 0.3 * (rng.standard_normal((SWEEP_N1, SWEEP_N2))
               + 1j * rng.standard_normal((SWEEP_N1, SWEEP_N2))) / np.sqrt(2.0)
    path = workdir / "blocks.json"
    path.write_text(json.dumps(
        {"blocks": {"A": _pairs(a), "B": _pairs(b), "C": _pairs(c)}}))
    commands, outputs = [], []
    for extra in SWEEP_COMMANDS:
        out = workdir / f"{extra[0]}.json"
        commands.append([extra[0], "--input", str(path), *extra[1:],
                         "--out", str(out)])
        outputs.append(out)
    return Job(commands, outputs, None, _sweep_oracle, path)


def _sweep_oracle(job: Job, reports: list[bytes]) -> list[str]:
    mus = sorted(ch["inputs"]["mu"] for ch in json.loads(reports[0])["checks"]
                 if ch["name"].startswith("inclusion-window/"))
    ladder = sweep_ladder()
    if len(mus) != ladder.size:
        return [f"enclose reports {len(mus)} points of sigma(A), "
                f"the generator made {ladder.size}"]
    worst = float(np.max(np.abs(np.array(mus) - ladder)))
    if worst > 1e-9 * float(ladder[-1]):
        return [f"enclose mu values miss sigma(A) by {worst:.3e}"]
    return []


def _selftest_job(seed: int, workdir: Path) -> Job:
    out = workdir / "selftest.json"
    argv = ["selftest", "--seed", str(seed), "--out", str(out)]
    return Job([argv], [out], [(name, "pass") for name in SELFTEST_CHECKS],
               _selftest_oracle)


def _selftest_oracle(job: Job, reports: list[bytes]) -> list[str]:
    # c_tilde of the cubic fixture is the midpoint of c = -1 and the
    # smallest eigenvalue above it, the middle root of the cubic.
    fixture = next(ch for ch in json.loads(reports[0])["checks"]
                   if ch["name"] == "fixtures/cubic")["outputs"]
    middle = float(np.sort(np.roots(CUBIC).real)[1])
    expected = 0.5 * (-1.0 + middle)
    if abs(fixture["c_tilde"] - expected) > 1e-9:
        return [f"fixture c_tilde {fixture['c_tilde']!r} != {expected!r}"]
    return []


BUILDERS = {
    "mhd-profile": _mhd_job,
    "selftest": _selftest_job,
    "block-sweep": _sweep_job,
}


def make_job(workload: str, seed: int, workdir: Path) -> Job:
    """Generate the workload's inputs from the seed under workdir."""
    return BUILDERS[workload](seed, workdir)
