"""Discretization substrate: truncated box, region index sets, fractional operators.

The computational domain is the box [-R, R] with N cell-centered nodes
x_j = -R + (j + 1/2) * spacing, so no node ever sits on a region boundary
placed at a cell edge.  The fractional Laplacian is realized as Fourier
collocation on the periodized box: the operator is the circulant matrix with
symbol |xi|^(2s) on the discrete frequency lattice.  Norm machinery uses the
inhomogeneous symbol (1 + |xi|^2)^s.  Both circulants are held as their
first column (`Circulant`); every solve gathers only the blocks it uses,
between the rows it needs and the support of its vector, so no N x N matrix
is ever formed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SimulationBox",
    "IndexSets",
    "Circulant",
    "GridFunction",
    "FractionalOrder",
    "SobolevMachinery",
    "build_box",
    "build_index_sets",
    "build_sobolev",
    "hs_inner",
    "hs_norm",
    "l2_norm",
    "hminus_s_norm",
    "hminus_s_inner",
    "smooth_bump",
]


@dataclass(frozen=True)
class SimulationBox:
    """Truncated 1-D computational box [-R, R] with N cell-centered nodes."""

    radius: float
    points_per_axis: int
    dimension: int = 1

    @property
    def spacing(self) -> float:
        return 2.0 * self.radius / self.points_per_axis

    @property
    def nodes(self) -> np.ndarray:
        n = self.points_per_axis
        return -self.radius + (np.arange(n) + 0.5) * self.spacing

    @property
    def size(self) -> int:
        return self.points_per_axis ** self.dimension


@dataclass(frozen=True)
class IndexSets:
    """Disjoint node-index sets for the interior region and exterior windows.

    ``omega`` indexes the interior region, ``w1`` the control window,
    ``w2`` the measurement window; ``exterior`` is the complement of omega.
    w1 and w2 live inside the exterior and may coincide, but w1 must keep a
    positive distance from omega.
    """

    omega: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    exterior: np.ndarray
    separation_gap: float


@dataclass
class GridFunction:
    """Real-valued function sampled on the box nodes."""

    values: np.ndarray
    box: SimulationBox

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.box.size,):
            raise ValueError(
                f"values must have length {self.box.size}, got {self.values.shape}"
            )

    def copy(self) -> "GridFunction":
        return GridFunction(self.values.copy(), self.box)


@dataclass(frozen=True)
class FractionalOrder:
    """Fractional power s of the Laplacian, 0 < s < 1."""

    s: float

    def __post_init__(self) -> None:
        if not (0.0 < self.s < 1.0):
            raise ValueError(f"fractional order must lie in (0,1), got {self.s}")


# block entries past which `Circulant.rows` forms its product by rFFT
GATHER_MAX_ENTRIES = 2**26


class Circulant:
    """Symmetric n x n circulant matrix C[i, j] = col[(i - j) % n], held as
    its first column.

    ``C[np.ix_(rows, cols)]`` gathers a block from the column,
    ``C.rows(rows, x)`` is ``(C @ x)[rows]`` and ``C @ x`` is that product
    on every row.  ``nbytes`` counts the bytes held; ``np.asarray(C)`` forms
    the dense matrix (small n only).

    ``rows`` gathers the |rows| x |supp x| block and sums over the support
    of x only.  Past GATHER_MAX_ENTRIES = 2**26 block entries (1 GiB of
    index and values) it takes the whole product by rFFT, in O(n) memory.
    The CLI's footprint budget (32 K^2 <= 2e9 bytes for K region nodes)
    keeps every product a CLI verb makes on the gather path.
    """

    def __init__(self, col: np.ndarray):
        self.col = col

    @property
    def nbytes(self) -> int:
        return self.col.nbytes

    def __getitem__(self, key) -> np.ndarray:
        rows, cols = key
        # i - j lies in (-n, n) and numpy reads a negative index k as n + k,
        # so this is col[(i - j) % n] without the modulo
        return self.col[rows - cols]

    def rows(self, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        supp = np.flatnonzero(x)
        if len(rows) * len(supp) > GATHER_MAX_ENTRIES:
            n = len(self.col)
            return np.fft.irfft(np.fft.rfft(self.col) * np.fft.rfft(x), n)[rows]
        return self[np.ix_(rows, supp)] @ x[supp]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.rows(np.arange(len(self.col)), x)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        idx = np.arange(len(self.col))
        return np.asarray(self[np.ix_(idx, idx)], dtype=dtype)


@dataclass
class SobolevMachinery:
    """Operator and norm circulants for one (box, s) pair.

    frac_lap is the symmetric PSD collocation matrix of the fractional
    Laplacian; gram_hs the SPD Gram matrix of the inhomogeneous Sobolev
    inner product; both are `Circulant`s holding one column each.  The
    quadrature weight is the box spacing h at every node.  Region-restricted
    matrices (Gram factors, minimal-L2 workspaces) are cached on the
    machinery under a lock.
    """

    box: SimulationBox
    order: FractionalOrder
    frac_lap: Circulant
    gram_hs: Circulant
    dual_gram_cache: dict = field(default_factory=dict)
    _cache_lock: threading.Lock = field(default_factory=threading.Lock)

    def cached(self, key, build):
        """The cached value under `key`, made by `build()` on first request."""
        with self._cache_lock:
            val = self.dual_gram_cache.get(key)
            if val is None:
                val = self.dual_gram_cache[key] = build()
        return val

    def gram_factor(self, region: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower-triangular (L, L^-1) on `region`, cached and read-only,
        where G = L L^T is the Cholesky factorization of the gram_hs block."""
        def build():
            chol = np.linalg.cholesky(self.gram_hs[np.ix_(region, region)])
            factor = chol, tril_inverse(chol)
            for a in factor:
                a.flags.writeable = False
            return factor

        return self.cached(region.tobytes(), build)

    def dual_weight(self, region: np.ndarray) -> np.ndarray:
        """Lower-triangular Q = h L^-1 on `region` (see gram_factor), so
        Q^T Q = h^2 G^-1 and ||Q h|| is the dual Sobolev norm of h."""
        return self.box.spacing * self.gram_factor(region)[1]


# order at and below which `tril_inverse` inverts a block directly
TRIL_LEAF = 64


def tril_inverse(chol: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix, by the 2x2 block
    recursion inv([[A, 0], [C, D]]) = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]:
    about n^3 / 3 flops in matrix products, where a general inverse's LU
    takes about 2.7 n^3.  A leaf inverts chol^T, transposed: an
    upper-triangular LU needs no row exchanges.
    """
    n = len(chol)
    if n <= TRIL_LEAF:
        return np.tril(np.linalg.inv(chol.T).T)
    k = n // 2
    a_inv = tril_inverse(chol[:k, :k])
    d_inv = tril_inverse(chol[k:, k:])
    out = np.zeros_like(chol)
    out[:k, :k] = a_inv
    out[k:, k:] = d_inv
    out[k:, :k] = -d_inv @ (chol[k:, :k] @ a_inv)
    return out


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def build_box(radius: float, points: int, dimension: int = 1) -> SimulationBox:
    """Construct the cell-centered computational box.

    `points` must be a power of two (>= 64) for transform efficiency.
    Only dimension 1 is implemented.
    """
    if radius <= 0:
        raise ValueError(f"box radius must be positive, got {radius}")
    if not _is_power_of_two(points) or points < 64:
        raise ValueError(f"points per axis must be a power of two >= 64, got {points}")
    if dimension != 1:
        raise ValueError(f"only dimension 1 is supported, got {dimension}")
    return SimulationBox(float(radius), int(points), int(dimension))


def _interval_mask(x: np.ndarray, intervals) -> np.ndarray:
    mask = np.zeros(x.shape, dtype=bool)
    for a, b in intervals:
        if not (a < b):
            raise ValueError(f"empty or inverted interval ({a}, {b})")
        mask |= (x > a) & (x < b)
    return mask


def _intervals_distance(ivs_a, ivs_b) -> float:
    d = np.inf
    for a0, a1 in ivs_a:
        for b0, b1 in ivs_b:
            if a1 <= b0:
                d = min(d, b0 - a1)
            elif b1 <= a0:
                d = min(d, a0 - b1)
            else:
                return 0.0
    return d


def build_index_sets(
    box: SimulationBox,
    omega_spec,
    w1_spec,
    w2_spec,
) -> IndexSets:
    """Build disjoint node-index sets from unions of open intervals.

    omega is the interior region; w1 and w2 must lie in its complement.
    w1 must additionally keep a strictly positive distance from omega
    (closures disjoint); w2 may approach omega arbitrarily and may equal w1.
    """
    x = box.nodes
    R = box.radius
    for name, spec in (("omega", omega_spec), ("w1", w1_spec), ("w2", w2_spec)):
        for a, b in spec:
            if a < -R or b > R:
                raise ValueError(f"{name} interval ({a},{b}) leaves the box [-{R},{R}]")

    gap_w1 = _intervals_distance(omega_spec, w1_spec)
    if gap_w1 <= 0.0:
        raise ValueError("w1 must have positive distance from omega (closures disjoint)")
    if _intervals_distance(omega_spec, w2_spec) == 0.0:
        # open sets may share a boundary point but must not overlap
        for a0, a1 in omega_spec:
            for b0, b1 in w2_spec:
                if a0 < b1 and b0 < a1:
                    raise ValueError("w2 overlaps omega")

    om_mask = _interval_mask(x, omega_spec)
    w1_mask = _interval_mask(x, w1_spec)
    w2_mask = _interval_mask(x, w2_spec)
    for name, m in (("omega", om_mask), ("w1", w1_mask), ("w2", w2_mask)):
        if not m.any():
            raise ValueError(f"region {name} contains no grid nodes")
    if (om_mask & w1_mask).any() or (om_mask & w2_mask).any():
        raise ValueError("omega overlaps an exterior window")

    omega = np.nonzero(om_mask)[0]
    exterior = np.nonzero(~om_mask)[0]
    return IndexSets(
        omega=omega,
        w1=np.nonzero(w1_mask)[0],
        w2=np.nonzero(w2_mask)[0],
        exterior=exterior,
        separation_gap=gap_w1,
    )


def _circulant_column(symbol: np.ndarray) -> np.ndarray:
    col = np.fft.ifft(symbol).real
    return 0.5 * (col + np.roll(col[::-1], 1))  # enforce exact evenness -> symmetry


def build_sobolev(box: SimulationBox, order: FractionalOrder) -> SobolevMachinery:
    """Assemble the operator and norm circulants for one box and order s."""
    n = box.points_per_axis
    h = box.spacing
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    frac_lap = Circulant(_circulant_column(np.abs(xi) ** (2.0 * order.s)))
    gram_hs = Circulant(h * _circulant_column((1.0 + xi ** 2) ** order.s))
    return SobolevMachinery(box, order, frac_lap, gram_hs)


def _check_same_box(m: SobolevMachinery, u: GridFunction) -> None:
    if u.box != m.box:
        raise ValueError("grid function lives on a different box than the machinery")


def hs_inner(m: SobolevMachinery, u: GridFunction, v: GridFunction) -> float:
    """Inhomogeneous Sobolev inner product u^T G_s v, over the supports of u and v."""
    _check_same_box(m, u)
    _check_same_box(m, v)
    su = np.flatnonzero(u.values)
    return float(u.values[su] @ m.gram_hs.rows(su, v.values))


def hs_norm(m: SobolevMachinery, u: GridFunction) -> float:
    return float(np.sqrt(max(hs_inner(m, u, u), 0.0)))


def l2_norm(m: SobolevMachinery, values: np.ndarray) -> float:
    """Discrete L2 norm of raw nodal values (any subset of nodes)."""
    return float(np.sqrt(m.box.spacing * np.sum(np.asarray(values) ** 2)))


def hminus_s_norm(m: SobolevMachinery, hfun: GridFunction, region: np.ndarray) -> float:
    """Dual Sobolev norm of h over `region`.

    Realized as the dual norm of the region-supported Sobolev space:
    sup over region-supported phi of (h, phi)_L2 / ||phi||_Hs, i.e.
    sqrt(h^T M_r G_r^{-1} M_r h) = ||Q h|| with the region Gram block G_r,
    the mass M_r = spacing * I and the machinery's dual weight Q.
    """
    _check_same_box(m, hfun)
    if len(region) == 0:
        raise ValueError("empty region")
    return float(np.linalg.norm(m.dual_weight(region) @ hfun.values[region]))


def hminus_s_inner(
    m: SobolevMachinery, h1: np.ndarray, h2: np.ndarray, region: np.ndarray
) -> float:
    """Dual-norm inner product (Q h1) . (Q h2) of two value vectors given on `region`."""
    q = m.dual_weight(region)
    return float((q @ np.asarray(h1)) @ (q @ np.asarray(h2)))


def smooth_bump(
    box: SimulationBox, center: float, width: float, amplitude: float = 1.0
) -> GridFunction:
    """Compactly supported C-infinity bump exp(1 - 1/(1-t^2)) on (center-width, center+width)."""
    return GridFunction(bump_values(box.nodes, center, width, amplitude), box)


def bump_values(x: np.ndarray, center: float, width: float, amplitude: float = 1.0) -> np.ndarray:
    """The `smooth_bump` formula at arbitrary points x."""
    if width <= 0:
        raise ValueError("bump width must be positive")
    t = (np.asarray(x) - center) / width
    vals = np.zeros(len(t))
    inside = np.abs(t) < 1.0
    vals[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return vals
