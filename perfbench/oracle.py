"""Independent exactness oracle for shift-rule files (numpy only).

Nothing here imports ``shiftrules``: the gaps are rebuilt from the
eigenvalues and a rule is judged by its defining residual, so a defect in
the package cannot hide behind the same defect in the check.
"""

from __future__ import annotations

import numpy as np

EXACT_BOUND = 1e-8
N2_OPTIMUM = 0.5  # symmetric two-term rule, Wierichs et al., Quantum 6, 677 (2022)


def signed_gaps(eigenvalues) -> np.ndarray:
    """Every distinct signed difference lambda_k - lambda_l, zero included.

    No tolerance merges nearby values: a rule must be exact on each gap
    the spectrum really has, however close two of them are.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    return np.unique(np.subtract.outer(lam, lam).ravel())


def _target(mu: np.ndarray, orders) -> np.ndarray:
    """sum_p w_p (i mu)^p for (p, weight) pairs."""
    target = np.zeros(len(mu), dtype=complex)
    for p, w in orders:
        target += w * (1j * mu) ** int(p)
    return target


def scaled_error(phases, coefficients, orders, gaps) -> float:
    """max over mu of |sum_x b_x e^{i mu phi_x} - target(mu)| / (1 + |target(mu)|).

    ``orders`` is a list of (p, weight) pairs; target(mu) = sum_p w_p (i mu)^p.
    """
    mu = np.asarray(gaps, dtype=float)
    E = np.exp(1j * np.outer(mu, np.asarray(phases, dtype=float)))
    target = _target(mu, orders)
    err = np.abs(E @ np.asarray(coefficients, dtype=float) - target)
    return float(np.max(err / (1.0 + np.abs(target))))


def rule_orders(rule: dict) -> list[tuple[int, float]]:
    return [(int(o["p"]), float(o["weight"])) for o in rule["orders"]]


def rule_error(rule: dict, eigenvalues) -> float:
    """Scaled error of a rule file's contents on the spectrum's own gaps."""
    return scaled_error(rule["phases"], rule["coefficients"], rule_orders(rule),
                        signed_gaps(eigenvalues))


def rule_error_on_own_frequencies(rule: dict) -> float:
    """Scaled error on the frequency set the rule file itself records.

    This is what ``validate`` can see, so it is the reference for its
    exit code; ``rule_error`` is the reference for the spectrum.
    """
    w = np.asarray(rule.get("frequencies", []), dtype=float)
    return scaled_error(rule["phases"], rule["coefficients"], rule_orders(rule),
                        np.concatenate([[0.0], w, -w]))


def square_norm(rule: dict) -> float:
    b = np.asarray(rule["coefficients"], dtype=float)
    return float(b @ b)


def stationarity_residual(rule: dict) -> float:
    """max_y |S_y| with S_y = 1/2 d|b|^2/d phi_y, from the exact derivative of the solve.

    db/dphi_y = -b_y E^{-1} u_y, u_y the phase derivative of column y, on
    the rule's own frequency set.  Used to tell certified optimizer
    results from uncertified ones.
    """
    w = np.asarray(rule["frequencies"], dtype=float)
    mu = np.concatenate([[0.0], w, -w])
    phases = np.asarray(rule["phases"], dtype=float)
    E = np.exp(1j * np.outer(mu, phases))
    b = np.linalg.solve(E, _target(mu, rule_orders(rule))).real
    A = np.linalg.solve(E, (1j * mu)[:, None] * E)
    grad_half = b @ (-b[None, :] * A).real
    return float(np.abs(grad_half).max())
