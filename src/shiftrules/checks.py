"""The paper's alternative forms of quantities the package computes once.

Cramer and Jacobi coefficients, the finite-difference, determinant and
explicit stationarity residuals, the symmetric Vandermonde expansion,
the Dirichlet kernel in its sum and ratio forms, the column
orthogonality residual, the linearized and the exactly perturbed
solutions and the undeduplicated design system: independent checks of
the production paths, cost-capped where they take determinants.
``shiftrules`` itself does not import this module.
"""

from __future__ import annotations

import numpy as np

from .perturbation import PerturbationData
from .regularization import tikhonov_solve
from .spectrum import FrequencySet
from .synthesis import (
    FIRST_DERIVATIVE,
    IMAG_TOL,
    IllPosedError,
    LinearSystem,
    Orders,
    _capped_solve,
    _gap_rhs,
    _normalize_orders,
    build_system,
)

CRAMER_SIZE_CAP = 9
DETERMINANT_SIZE_CAP = 7


def build_full_system(freq: FrequencySet, phases, orders=FIRST_DERIVATIVE) -> LinearSystem:
    """Design system with one row per signed eigenvalue pair (no dedup).

    Rows are the zero gap once, then +w and -w for each frequency w,
    each repeated ``multiplicity`` times.  Coincident gaps therefore
    produce duplicate rows and a singular square matrix; this variant
    exists for ill-posedness experiments and for the regularized path,
    which tolerates rank deficiency.
    """
    phases = np.asarray(phases, dtype=float)
    orders = _normalize_orders(orders)
    counts = np.concatenate([[1], np.repeat(freq.multiplicities, 2)])
    gaps = np.repeat(freq.distinct_gaps, counts)
    E = np.exp(1j * np.outer(gaps, phases))
    return LinearSystem(matrix=E, rhs=_gap_rhs(gaps, orders), row_gaps=gaps, phases=phases,
                        orders=orders)


def cramer_coefficient(sys: LinearSystem, x: int) -> float:
    """Coefficient b_x via Cramer's rule: det E(phi/phi_x) / det E.

    Restricted to systems of size <= 9 (determinant cost guard).
    """
    E = sys.matrix
    if not sys.is_square:
        raise ValueError("Cramer's rule needs a square system")
    m = E.shape[0]
    if m > CRAMER_SIZE_CAP:
        raise ValueError(f"Cramer path limited to m <= {CRAMER_SIZE_CAP}, got {m}")
    if not 0 <= x < m:
        raise IndexError("column index out of range")
    det = np.linalg.det(E)
    if det == 0 or not np.isfinite(abs(det)):
        raise IllPosedError("singular design matrix in Cramer's rule")
    M = E.copy()
    M[:, x] = sys.rhs
    value = np.linalg.det(M) / det
    if abs(value.imag) > IMAG_TOL * max(1.0, abs(value)):
        raise ValueError("Cramer coefficient came out non-real")
    return float(value.real)


def jacobi_coefficient(sys: LinearSystem, x: int, step: float = 1e-4) -> float:
    """Coefficient b_x from the determinant-derivative form.

    Numerator: d/ds det E with column x evaluated at phase s, at s = 0
    (Richardson-extrapolated central differences); denominator: det E at
    the given phases.  Agrees with cramer_coefficient because the
    phase-derivative of a column at zero phase is exactly the
    first-derivative right-hand side.
    """
    E = sys.matrix
    if not sys.is_square:
        raise ValueError("Jacobi form needs a square system")
    det = np.linalg.det(E)
    if det == 0:
        raise IllPosedError("singular design matrix in Jacobi form")

    def det_at(s: float) -> complex:
        M = E.copy()
        M[:, x] = np.exp(1j * sys.row_gaps * s)
        return np.linalg.det(M)

    def central(h: float) -> complex:
        return (det_at(h) - det_at(-h)) / (2 * h)

    deriv = (4 * central(step / 2) - central(step)) / 3
    value = deriv / det
    return float(value.real)


def _fd_stationarity(solve, phases: np.ndarray, step: float) -> np.ndarray:
    # S_y = b . db/dphi_y with each derivative a central difference of re-solves
    b = solve(phases)
    out = np.zeros(len(phases))
    for y in range(len(phases)):
        h = step * max(1.0, abs(phases[y]))
        up, dn = phases.copy(), phases.copy()
        up[y] += h
        dn[y] -= h
        out[y] = float(b @ ((solve(up) - solve(dn)) / (2 * h)))
    return out


def stationarity_residual(
    freq: FrequencySet,
    phases,
    orders: Orders = FIRST_DERIVATIVE,
    step: float = 1e-6,
) -> np.ndarray:
    """The gradient-type residual S_y = sum_x b_x * d b_x / d phi_y.

    All components vanish exactly at a stationary point of the
    square-norm objective.  The derivatives are central differences of
    condition-capped re-solves; the realness assertion is skipped, as
    round-off imaginaries grow with conditioning.
    """
    orders = _normalize_orders(orders)

    def solve(ph):
        sys = build_system(freq, ph, orders)
        return _capped_solve(sys.matrix, sys.rhs)[0].real

    return _fd_stationarity(solve, np.asarray(phases, dtype=float), step)


def determinant_stationarity_residual(
    freq: FrequencySet,
    phases,
    orders: Orders = FIRST_DERIVATIVE,
) -> np.ndarray:
    """Square-norm stationarity residual from the determinant identity.

    Evaluates the identity behind ``stationarity_residual``
    (first-derivative target only, m <= 7) and returns the normalized
    side difference of that identity, which equals S_y.
    """
    phases = np.asarray(phases, dtype=float)
    m = len(phases)
    orders = _normalize_orders(orders)
    if orders != FIRST_DERIVATIVE:
        raise ValueError("determinant form is defined for the first-derivative target")
    if m > DETERMINANT_SIZE_CAP:
        raise ValueError(f"determinant form limited to m <= {DETERMINANT_SIZE_CAP}")
    sys = build_system(freq, phases, orders)
    E, mu, gaps = sys.matrix, sys.rhs, sys.row_gaps
    D = np.linalg.det(E)
    if D == 0:
        raise IllPosedError("singular system in determinant stationarity form")
    Dx = np.empty(m, dtype=complex)
    for x in range(m):
        M = E.copy()
        M[:, x] = mu
        Dx[x] = np.linalg.det(M)
    out = np.zeros(m)
    for y in range(m):
        uy = 1j * gaps * np.exp(1j * gaps * phases[y])
        Ey = E.copy()
        Ey[:, y] = uy
        lhs = 0j
        for x in range(m):
            if x == y:
                continue  # the x = y cross determinant vanishes identically
            M = E.copy()
            M[:, y] = uy
            M[:, x] = mu
            lhs += Dx[x] * np.linalg.det(M)
        rhs = np.linalg.det(Ey) / D * np.sum(Dx**2)
        out[y] = ((lhs - rhs) / D**2).real
    return out


def regularized_stationarity_residual(
    freq: FrequencySet,
    phases,
    gamma: float,
    method: str = "finite_difference",
    orders: Orders = FIRST_DERIVATIVE,
    step: float = 1e-6,
) -> np.ndarray:
    """Stationarity residual of the Tikhonov coefficients' square-norm.

    ``finite_difference`` differentiates the regularized solve itself;
    ``explicit`` expands the derivative with the matrix identity
    d(Y^{-1}) = -Y^{-1} dY Y^{-1} (m <= 7) as an independent cross-check.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    phases = np.asarray(phases, dtype=float)
    m = len(phases)
    orders = _normalize_orders(orders)

    def coeffs(ph):
        return tikhonov_solve(build_system(freq, ph, orders), gamma).coefficients

    if method == "finite_difference":
        return _fd_stationarity(coeffs, phases, step)

    if method == "explicit":
        if m > DETERMINANT_SIZE_CAP:
            raise ValueError(f"explicit form limited to m <= {DETERMINANT_SIZE_CAP}")
        sys = build_system(freq, phases, orders)
        E, mu, gaps = sys.matrix, sys.rhs, sys.row_gaps
        M = gamma * np.eye(m) + E.conj().T @ E
        b = np.linalg.solve(M, E.conj().T @ mu)
        out = np.zeros(m)
        for y in range(m):
            uy = 1j * gaps * np.exp(1j * gaps * phases[y])
            e_y = np.zeros(m)
            e_y[y] = 1.0
            dEdag_mu = e_y * (uy.conj() @ mu)
            dM = np.outer(e_y, uy.conj() @ E) + np.outer(E.conj().T @ uy, e_y)
            db = np.linalg.solve(M, dEdag_mu - dM @ b)
            out[y] = float(b.real @ db.real)
        return out

    raise ValueError(f"unknown method {method!r}")


def _elementary_symmetric(roots: np.ndarray) -> np.ndarray:
    """[S_0, S_1, ..., S_d] for the given roots (S_0 = 1)."""
    coeffs = np.poly(roots)  # x^d + c1 x^{d-1} + ... with c_k = (-1)^k S_k
    signs = (-1.0) ** np.arange(len(coeffs))
    return signs * coeffs


def vandermonde_expansion_coeffs(
    eigenvalues,
    t: float,
    method: str = "solve",
    distinct_tol: float = 1e-9,
) -> np.ndarray:
    """Coefficients c_p with exp(i*lam_j*t) = sum_p c_p lam_j^p for all j.

    ``method="solve"`` solves the Vandermonde system directly;
    ``method="symmetric"`` uses the closed form built from elementary
    symmetric polynomials of the complementary eigenvalues.  Both agree
    to round-off; the closed form exists as an independent check.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    n = len(lam)
    if n < 1:
        raise ValueError("need at least one eigenvalue")
    scale = max(1.0, float(np.abs(lam).max()))
    if n > 1:
        gaps = np.abs(lam[:, None] - lam[None, :])[~np.eye(n, dtype=bool)]
        if gaps.min() <= distinct_tol * scale:
            raise ValueError("eigenvalues must be pairwise distinct")
    values = np.exp(1j * lam * t)

    if method == "solve":
        V = np.vander(lam, increasing=True).astype(complex)
        return np.linalg.solve(V, values)
    if method == "symmetric":
        c = np.zeros(n, dtype=complex)
        for j in range(n):
            others = np.delete(lam, j)
            denom = np.prod(others - lam[j]) if n > 1 else 1.0
            S = _elementary_symmetric(others)  # S_0..S_{n-1}
            for i in range(n):
                c[i] += (-1.0) ** i * S[n - 1 - i] / denom * values[j]
        return c
    raise ValueError(f"unknown method {method!r}")


def dirichlet_kernel(order: int, x) -> float | np.ndarray:
    """D_k(x) = 1 + 2*sum_{j=1..k} cos(j*x), computed by the sum form."""
    if order < 0:
        raise ValueError("order must be non-negative")
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    for j in range(1, order + 1):
        out = out + 2 * np.cos(j * x)
    return float(out) if out.ndim == 0 else out


def orthogonality_residual(freq: FrequencySet, phases) -> float:
    """Max normalized off-diagonal column overlap |v(phi_j)^* v(phi_i)| / m.

    Zero exactly when the (reduced) design columns are orthogonal, which
    happens only for equidistant spectra at the equidistant phases.
    """
    sys = build_system(freq, phases)
    G = sys.matrix.conj().T @ sys.matrix
    off = G - np.diag(np.diag(G))
    return float(np.abs(off).max() / sys.matrix.shape[0])


def _dirichlet_kernel_ratio(order: int, x: float) -> float:
    # Closed form of dirichlet_kernel; invalid where sin(x/2) = 0.
    return float(np.sin((order + 0.5) * x) / np.sin(0.5 * x))


def linearized_solution(
    E: np.ndarray,
    pd: PerturbationData,
    b0: np.ndarray,
    eps: float,
) -> np.ndarray:
    """First-order solution b0 + eps * E^{-1} (r - R b0).

    E must be the nonsingular (normalized) unperturbed matrix and b0 its
    exact solution; the quadratic remainder is o(eps).
    """
    db = np.linalg.solve(E, pd.vector - pd.matrix @ np.asarray(b0, dtype=complex))
    out = np.asarray(b0, dtype=complex) + eps * db
    return out


def exact_perturbed_solution(
    E: np.ndarray,
    pd: PerturbationData,
    rhs: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Solve the exactly perturbed system (E + eps R) b = rhs + eps r."""
    return np.linalg.solve(E + eps * pd.matrix, rhs + eps * pd.vector)
