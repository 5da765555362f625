"""Well-posed forward problem: solvability check and interior solve.

Given exterior values f and a potential q on the interior region, the
discrete state u satisfies the interior collocation equations
(A u)|_omega + q * u|_omega = 0 with u = f on the exterior, where A is the
fractional Laplacian matrix.  The measurement map, f to (A u) restricted to
an exterior window, is formed from u by `reconstruct.synthetic_measurement`;
the forward report's two norms of u, by `solve_diagnostics`.

0 must be no Dirichlet eigenvalue: the interior block B's smallest
|eigenvalue| must exceed UNIQUENESS_RTOL times its largest.  A Cholesky
factorization of B - c I, c = (UNIQUENESS_RTOL + 2 n (n+1) eps) n max|B_ij|,
that completes is exact for a matrix within n (n+1) eps max|B_ij| of B - c I
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
ch. 10), so it proves lambda_min(B) > UNIQUENESS_RTOL n max|B_ij| >=
UNIQUENESS_RTOL ||B||_2.  When it fails, the solve decides by B's
eigenvalues.
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
    "solve_dirichlet",
    "solve_diagnostics",
]

# relative threshold on the smallest singular value of the interior block
UNIQUENESS_RTOL = 1e-8
EPS = np.finfo(float).eps


class EigenvalueConditionError(RuntimeError):
    """Interior operator is singular: zero is (numerically) a Dirichlet eigenvalue."""


@dataclass
class Potential:
    """Potential values on the omega nodes."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if not np.isfinite(self.values).all():
            raise ValueError("potential has non-finite values")


def _interior_matrix(m: SobolevMachinery, sets: IndexSets, q: Potential) -> np.ndarray:
    if len(q.values) != len(sets.omega):
        raise ValueError(
            f"potential has {len(q.values)} values but omega has {len(sets.omega)} nodes"
        )
    block = m.frac_lap[sets.omega[:, None], sets.omega]
    # a gather is a new C-contiguous array, so ravel() is a view of it
    block.ravel()[:: len(block) + 1] += q.values
    return block


def solve_dirichlet(
    m: SobolevMachinery, sets: IndexSets, q: Potential, f: GridFunction
) -> GridFunction:
    """Solve the exterior-value problem for the state u.

    f must be supported in the exterior; the returned u equals f on every
    exterior node bit-exactly and solves the interior equations by a dense
    factorization.  The interior block B is certified by the Cholesky
    factorization of B - c I in the module docstring, whose 2 n (n+1) eps
    term covers its rounding (Higham 2002, ch. 10); when that fails, B's
    eigenvalues decide, and EigenvalueConditionError is raised unless the
    smallest |eigenvalue| exceeds UNIQUENESS_RTOL times the largest.
    """
    if f.values[sets.omega].any():
        raise ValueError("exterior datum f has nonzero values on omega nodes")
    block = _interior_matrix(m, sets, q)
    shifted, n = block.copy(), len(block)
    # c = max|B_ij| times a factor below 1, so that it cannot overflow
    shifted.ravel()[:: n + 1] -= np.abs(block).max() * (n * (UNIQUENESS_RTOL + 2 * n * (n + 1) * EPS))
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        svals = np.abs(np.linalg.eigvalsh(block))
        if not svals.min() > UNIQUENESS_RTOL * svals.max():
            raise EigenvalueConditionError(
                f"interior operator singular (margin {svals.min():.3e})") from None
    rhs = -m.frac_lap.rows(sets.omega, f.values)
    u_vals = f.values.copy()
    u_vals[sets.omega] = np.linalg.solve(block, rhs)
    return GridFunction(u_vals, m.box)


def solve_diagnostics(
    m: SobolevMachinery, sets: IndexSets, q: Potential, f: GridFunction, u: GridFunction
) -> dict:
    """Report-only diagnostics of the state u = solve_dirichlet(m, sets, q, f):
    "interior_residual", the L2 norm of the interior equations' residual over
    ||u||_{H^s}, and "solver_conditioning", ||u||_{H^s} / ||f||_{H^s}.
    Raises ValueError when a norm is not finite (data so large that it
    overflows)."""
    with np.errstate(over="ignore", invalid="ignore"):
        res_vec = m.frac_lap.rows(sets.omega, u.values) + q.values * u.values[sets.omega]
        un, fn, rn = hs_norm(m, u), hs_norm(m, f), l2_norm(m, res_vec)
    if not np.isfinite([un, fn, rn]).all():
        raise ValueError("the state, datum or residual has no finite norm: the data are too large")
    return {"interior_residual": rn / un if un > 0 else 0.0,
            "solver_conditioning": un / fn if fn > 0 else 0.0}
