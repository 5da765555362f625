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
    "smooth_bump",
]


@dataclass(frozen=True)
class SimulationBox:
    """Truncated 1-D computational box [-R, R] with N cell-centered nodes."""

    radius: float
    size: int

    @property
    def spacing(self) -> float:
        return 2.0 * self.radius / self.size

    @property
    def nodes(self) -> np.ndarray:
        return -self.radius + (np.arange(self.size) + 0.5) * self.spacing


@dataclass(frozen=True)
class IndexSets:
    """Disjoint node-index sets for the interior region and exterior windows.

    ``omega`` indexes the interior region, ``w1`` the control window,
    ``w2`` the measurement window.  w1 and w2 lie in the complement of
    omega and may coincide, but w1 must keep a positive distance from omega.
    """

    omega: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


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

    ``C[rows[:, None], cols]`` gathers a block from the column and
    ``C.rows(rows, x)`` is ``(C @ x)[rows]``.  ``nbytes`` counts the bytes
    held.

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
        supp = x.nonzero()[0]
        if len(rows) * len(supp) > GATHER_MAX_ENTRIES:
            n = len(self.col)
            return np.fft.irfft(np.fft.rfft(self.col) * np.fft.rfft(x), n)[rows]
        return self.col[rows[:, None] - supp] @ x[supp]


@dataclass
class SobolevMachinery:
    """Operator and norm circulants for one (box, s) pair.

    frac_lap is the symmetric PSD collocation matrix of the fractional
    Laplacian; gram_hs the SPD Gram matrix of the inhomogeneous Sobolev
    inner product; both are `Circulant`s holding one column each.  The
    quadrature weight is the box spacing h at every node.  `cached` keeps,
    under a lock, one read-only interior-to-window operator per (omega, w2)
    pair, which keeps its SVD and minimal-L2 workspace.  Gram factors are
    not kept: the operator's build factors both regions.
    """

    box: SimulationBox
    order: FractionalOrder
    frac_lap: Circulant
    gram_hs: Circulant
    cache: dict = field(default_factory=dict, init=False)
    _cache_lock: threading.Lock = field(default_factory=threading.Lock, init=False)

    def cached(self, key, build):
        """The cached value under `key`, made by `build()` on first request."""
        with self._cache_lock:
            val = self.cache.get(key)
            if val is None:
                val = self.cache[key] = build()
        return val

    def gram_factor(self, region: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower-triangular (L, L^-1) on `region`, where G = L L^T is the
        Cholesky factorization of the gram_hs block."""
        chol = np.linalg.cholesky(self.gram_hs[region[:, None], region])
        return chol, tril_inverse(chol)

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


def build_box(radius: float, points: int) -> SimulationBox:
    """Construct the cell-centered computational box.

    `points` must be a power of two (>= 64) for transform efficiency.
    """
    if not _is_power_of_two(points) or points < 64:
        raise ValueError(f"points per axis must be a power of two >= 64, got {points}")
    if not 0.0 < 2.0 * float(radius) / points < np.inf:
        raise ValueError(f"box radius must be positive with 0 < 2 R / {points} < inf: {radius}")
    return SimulationBox(float(radius), int(points))


def _interval_mask(x: np.ndarray, intervals) -> np.ndarray:
    mask = np.zeros(x.shape, dtype=bool)
    for a, b in intervals:
        mask |= (x > a) & (x < b)
    return mask


def _gap(ivs_a, ivs_b) -> float:
    """Signed gap between two unions of intervals: positive when apart, 0 when
    they touch, negative when they overlap, inf when either is empty."""
    return min((max(b0 - a1, a0 - b1) for a0, a1 in ivs_a for b0, b1 in ivs_b), default=np.inf)


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
            if not (a < b):
                raise ValueError(f"empty or inverted interval ({a}, {b})")

    if _gap(omega_spec, w1_spec) <= 0.0:
        raise ValueError("w1 must have positive distance from omega (closures disjoint)")
    if _gap(omega_spec, w2_spec) < 0.0:  # open sets may share a boundary point
        raise ValueError("w2 overlaps omega")

    om_mask = _interval_mask(x, omega_spec)
    w1_mask = _interval_mask(x, w1_spec)
    w2_mask = _interval_mask(x, w2_spec)
    for name, m in (("omega", om_mask), ("w1", w1_mask), ("w2", w2_mask)):
        if not m.any():
            raise ValueError(f"region {name} contains no grid nodes")

    return IndexSets(
        omega=np.nonzero(om_mask)[0],
        w1=np.nonzero(w1_mask)[0],
        w2=np.nonzero(w2_mask)[0],
    )


def _circulant_column(symbol: np.ndarray) -> np.ndarray:
    col = np.fft.ifft(symbol).real
    return 0.5 * (col + np.roll(col[::-1], 1))  # enforce exact evenness -> symmetry


def build_sobolev(box: SimulationBox, order: FractionalOrder) -> SobolevMachinery:
    """The operator and norm circulants of one box and order s; a non-finite one is refused."""
    h = box.spacing
    with np.errstate(over="ignore", invalid="ignore"):
        xi = 2.0 * np.pi * np.fft.fftfreq(box.size, d=h)
        frac_lap = _circulant_column(np.abs(xi) ** (2.0 * order.s))
        gram_hs = h * _circulant_column((1.0 + xi ** 2) ** order.s)
    if not (np.isfinite(frac_lap).all() and np.isfinite(gram_hs).all()):
        raise ValueError(f"box spacing {h:g} is too fine: the Sobolev symbols overflow")
    return SobolevMachinery(box, order, Circulant(frac_lap), Circulant(gram_hs))


def _check_same_box(m: SobolevMachinery, u: GridFunction) -> None:
    if u.box != m.box:
        raise ValueError("grid function lives on a different box than the machinery")


def hs_inner(m: SobolevMachinery, u: GridFunction, v: GridFunction) -> float:
    """Inhomogeneous Sobolev inner product u^T G_s v, over the supports of u and v."""
    _check_same_box(m, u)
    _check_same_box(m, v)
    su = u.values.nonzero()[0]
    return float(u.values[su] @ m.gram_hs.rows(su, v.values))


def hs_norm(m: SobolevMachinery, u: GridFunction) -> float:
    return float(np.sqrt(max(hs_inner(m, u, u), 0.0)))


def l2_norm(m: SobolevMachinery, values: np.ndarray) -> float:
    """Discrete L2 norm of raw nodal values (any subset of nodes)."""
    return float(np.sqrt(m.box.spacing * np.sum(np.asarray(values) ** 2)))


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
