"""Well-posed forward problem: solvability check and interior solve.

Given exterior values f and a potential q on the interior region, the
discrete state u satisfies the interior collocation equations
(A u)|_omega + q * u|_omega = 0 with u = f on the exterior, where A is the
fractional Laplacian matrix.  The measurement map, f to (A u) restricted to
an exterior window, is formed from u by `reconstruct.synthetic_measurement`;
the forward report's two norms of u, by `solve_diagnostics`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    GridFunction,
    IndexSets,
    SobolevMachinery,
    hs_norm,
    l2_norm,
)

__all__ = [
    "Potential",
    "EigenvalueConditionError",
    "check_dirichlet_uniqueness",
    "solve_dirichlet",
    "solve_diagnostics",
]

# relative threshold on the smallest singular value of the interior block
UNIQUENESS_RTOL = 1e-8


class EigenvalueConditionError(RuntimeError):
    """Interior operator is singular: zero is (numerically) a Dirichlet eigenvalue."""


@dataclass
class Potential:
    """Potential values on the omega nodes."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("potential has non-finite values")


def _interior_matrix(m: SobolevMachinery, sets: IndexSets, q: Potential) -> np.ndarray:
    if len(q.values) != len(sets.omega):
        raise ValueError(
            f"potential has {len(q.values)} values but omega has {len(sets.omega)} nodes"
        )
    a_oo = m.frac_lap[np.ix_(sets.omega, sets.omega)]
    return a_oo + np.diag(q.values)


def check_dirichlet_uniqueness(
    m: SobolevMachinery, sets: IndexSets, q: Potential
) -> dict:
    """Check that the interior operator is safely invertible.

    Returns {"ok": bool, "margin": smallest singular value, "block": the
    interior block A_oo + diag(q)}.  The check passes when the smallest
    singular value of the block exceeds ``UNIQUENESS_RTOL`` times its
    spectral norm.  The block is exactly symmetric, so its singular values
    are the absolute values of its eigenvalues.
    """
    mat = _interior_matrix(m, sets, q)
    svals = np.abs(np.linalg.eigvalsh(mat))
    margin = float(svals.min())
    ok = margin > UNIQUENESS_RTOL * float(svals.max())
    return {"ok": ok, "margin": margin, "block": mat}


def solve_dirichlet(
    m: SobolevMachinery, sets: IndexSets, q: Potential, f: GridFunction
) -> GridFunction:
    """Solve the exterior-value problem for the state u.

    f must be supported in the exterior; the returned u equals f on every
    exterior node bit-exactly and solves the interior equations by a dense
    factorization.  Raises EigenvalueConditionError when the interior
    operator is numerically singular.
    """
    if np.any(f.values[sets.omega] != 0.0):
        raise ValueError("exterior datum f has nonzero values on omega nodes")
    check = check_dirichlet_uniqueness(m, sets, q)
    if not check["ok"]:
        raise EigenvalueConditionError(
            f"interior operator singular (margin {check['margin']:.3e})"
        )
    rhs = -m.frac_lap.rows(sets.omega, f.values)
    u_vals = f.values.copy()
    u_vals[sets.omega] = np.linalg.solve(check["block"], rhs)
    return GridFunction(u_vals, m.box)


def solve_diagnostics(
    m: SobolevMachinery, sets: IndexSets, q: Potential, f: GridFunction, u: GridFunction
) -> dict:
    """Report-only diagnostics of the state u = solve_dirichlet(m, sets, q, f):
    "interior_residual", the L2 norm of the interior equations' residual over
    ||u||_{H^s}, and "solver_conditioning", ||u||_{H^s} / ||f||_{H^s}."""
    res_vec = m.frac_lap.rows(sets.omega, u.values) + q.values * u.values[sets.omega]
    un, fn = hs_norm(m, u), hs_norm(m, f)
    return {"interior_residual": l2_norm(m, res_vec) / un if un > 0 else 0.0,
            "solver_conditioning": un / fn if fn > 0 else 0.0}
