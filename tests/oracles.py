"""Independent oracles for expected-value derivation.

These deliberately avoid the library's code paths: scalar root isolation by
bisection, closed-form 2x2 eigenvalues, hand-expanded cofactor determinants
and cross-product eigenvectors for 3x3 matrices, and the window assignment
one lambda at a time that ``enclosures.window_owners`` does as one array call.
"""

import numpy as np


def bisect_root(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def real_roots(f, lo, hi, samples=40001):
    """All simple real roots of f on [lo, hi] by sign-change scan + bisection."""
    xs = np.linspace(lo, hi, samples)
    vals = np.array([f(x) for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            roots.append(float(xs[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(bisect_root(f, float(xs[i]), float(xs[i + 1])))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


def cubic_fixture_roots():
    """Roots of x^3 - 11x^2 + 6x + 32, the characteristic polynomial of
    [[2, 0, 1], [0, 10, 1], [1, 1, -1]]."""
    return real_roots(lambda x: x ** 3 - 11 * x ** 2 + 6 * x + 32, -20.0, 20.0)


def herm2x2_eigs(p, q, r):
    """Eigenvalues of [[p, q], [conj(q), r]] with p, r real."""
    mid = 0.5 * (p + r)
    rad = np.sqrt((0.5 * (p - r)) ** 2 + abs(q) ** 2)
    return mid - rad, mid + rad


def det3_shifted(m, x):
    """det(m - x I) for a 3x3 array, expanded by hand (first-row cofactors)."""
    a = [[m[i][j] - (x if i == j else 0.0) for j in range(3)] for i in range(3)]
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def poly_roots_durand_kerner(coeffs, iters=200):
    """All complex roots of a monic-normalizable polynomial, by
    Durand-Kerner fixed-point iteration (no linear algebra involved).

    ``coeffs`` are highest-degree first, as for np.polyval.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    coeffs = coeffs / coeffs[0]
    n = coeffs.size - 1
    roots = (0.4 + 0.9j) ** np.arange(1, n + 1)  # standard seeds
    for _ in range(iters):
        for i in range(n):
            num = np.polyval(coeffs, roots[i])
            den = np.prod([roots[i] - roots[j] for j in range(n) if j != i])
            roots[i] = roots[i] - num / den
    return roots


def eigvec3(m, lam):
    """Unit eigenvector of a real symmetric 3x3 at a simple eigenvalue,
    via the cross product of two rows of (m - lam I)."""
    shifted = np.asarray(m, dtype=float) - lam * np.eye(3)
    best = None
    for i in range(3):
        for j in range(i + 1, 3):
            v = np.cross(shifted[i], shifted[j])
            if best is None or np.linalg.norm(v) > np.linalg.norm(best):
                best = v
    return best / np.linalg.norm(best)


def riccati_residual(a, b, c, u, v):
    """||(K A - C K + K B K - B*) P||_F / (||M|| (1 + ||K||)^2) for the graph
    of K = V U⁺ spanned by the columns of [u; v], with P an orthonormal basis
    of range(u) = Dom(K) and ||M|| the largest |eigenvalue| of the assembled
    matrix: the Riccati equation applied directly, K from the pseudo-inverse."""
    k = v @ np.linalg.pinv(u)
    p = np.linalg.svd(u, full_matrices=False)[0]
    m = np.block([[a, b], [b.conj().T, c]])
    scale = np.max(np.abs(np.linalg.eigvalsh(m)))
    riccati = (k @ a - c @ k + k @ b @ k - b.conj().T) @ p / scale
    return np.linalg.norm(riccati) / (1.0 + np.linalg.norm(k, 2)) ** 2


def rotate_last_column(w, angle, rng):
    """A copy of the orthonormal columns w with the last one turned by
    ``angle`` toward a random unit vector orthogonal to all of them: the
    span moves off itself by exactly that principal angle."""
    w = np.array(w, dtype=complex)
    z = rng.normal(size=w.shape[0]) + 1j * rng.normal(size=w.shape[0])
    z -= w @ (w.conj().T @ z)
    z -= w @ (w.conj().T @ z)  # twice is enough (Kahan)
    w[:, -1] = np.cos(angle) * w[:, -1] + np.sin(angle) * z / np.linalg.norm(z)
    return w


def _gap_tol(*values):
    """BASE_TOL * max(1, |values|), the scalar tolerance of the windows."""
    return 1e-10 * max([1.0] + [abs(float(v)) for v in values])


def inclusion_reference(spec_a, lam):
    """The point mu of sigma(A) whose inclusion window applies at ``lam``, one
    lam at a time: the largest mu <= lam with lam in the left half of the gap
    above mu (or above the top of sigma(A)); None when there is none."""
    spec_a = np.sort(np.asarray(spec_a, dtype=float))
    idx = int(np.searchsorted(spec_a, lam, side="right")) - 1
    if idx < 0:
        return None
    mu = float(spec_a[idx])
    above = spec_a[spec_a > mu + _gap_tol(mu)]
    if above.size == 0:
        return mu
    nxt = float(above[0])
    return mu if lam <= 0.5 * (mu + nxt) + _gap_tol(mu, nxt) else None


def exclusion_reference(spec_a, lam):
    """The point mu of sigma(A) whose exclusion window applies at ``lam``, one
    lam at a time: the smallest mu >= lam with lam strictly in the right half
    of the gap below mu (or below the bottom of sigma(A)); None otherwise."""
    spec_a = np.sort(np.asarray(spec_a, dtype=float))
    idx = int(np.searchsorted(spec_a, lam, side="left"))
    if idx >= spec_a.size:
        return None
    mu = float(spec_a[idx])
    below = spec_a[spec_a < mu - _gap_tol(mu)]
    if below.size == 0:
        return mu
    prev = float(below[-1])
    return mu if lam > 0.5 * (prev + mu) + _gap_tol(prev, mu) else None


def cluster_tops(block):
    """The highest eigenvalue of A of each a_clusters label, ascending."""
    spec, labels = block.eig_a.eigenvalues, block.a_clusters
    return np.array([spec[labels == k].max() for k in range(block.a_points.size)])
