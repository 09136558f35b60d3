"""The k-D unit torus with Euclidean Voronoi ownership (paper, Section 3).

Servers are points in ``[0, 1)^k`` with wraparound along every axis; a
uniform point of the torus belongs to the server minimizing toroidal
Euclidean distance, i.e. bins are the cells of a periodic Voronoi
diagram.  The paper analyzes ``k = 2`` and remarks the argument extends
to any constant dimension; we support ``1 <= k <= 8``.

Implementation notes
--------------------
On the 2-torus, nearest-server lookups go through the ``torus_assign``
kernel of :mod:`repro.kernels` when the backend provides one (cext): a
lazy grid-bucket index, the 2-D twin of the ring's bucket table, cuts
the torus into ``G × G`` cells (``G`` a power of two, so ``x·G`` is
exact) and stores the servers in cell order; the kernel scans rings of
cells outward from the query's cell and stops once no unscanned server
can win.  It returns exactly the server minimizing the periodic squared
distance as :class:`scipy.spatial.cKDTree` computes it, exact ties to
the lowest index, so on random inputs it equals the tree's answer and
no result or cache key depends on which path ran.

:class:`scipy.spatial.cKDTree` with ``boxsize=1.0`` (exact periodic
metrics) is the reference and the fallback path: it is built on first
use, for ``k != 2`` and on backends without ``torus_assign`` (numpy,
numba).  The simulation never materializes the Voronoi diagram.
Duplicate servers are rejected by an exact sort-based row check.
Region *areas* (for measure-aware tie-breaking and the Lemma 9
experiments) are computed exactly for k = 2 via
:func:`repro.geo2d.voronoi.toroidal_voronoi_areas`, exactly for k = 1 in
closed form, and by Monte-Carlo for k >= 3.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.core.spaces import GeometricSpace
from repro.kernels import default_backend
from repro.utils.rng import resolve_rng
from repro.utils.validation import (
    as_float_array,
    check_dimension,
    check_distinct_torus_points,
    check_positive_int,
)

__all__ = ["TorusSpace", "grid_index"]


def grid_index(
    pts: np.ndarray, g: int
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """``(g, start, spts, sidx)``: 2-torus servers bucketed on a ``g × g`` grid.

    ``g`` must be a power of two, so ``floor(x·g)`` is exact.  Cell
    ``ix*g + iy`` holds the servers with ``floor(x·g) == ix`` and
    ``floor(y·g) == iy``; ``spts[start[c]:start[c+1]]`` are their rows
    and ``sidx`` the matching server indices (int32), in CSR order,
    ascending index within a cell.  Built in ``O(n log n)`` by argsort,
    bincount and cumsum; this is the layout the ``torus_assign`` kernel
    of :mod:`repro.kernels` reads.
    """
    cells = (pts * g).astype(np.int64)
    cell = cells[:, 0] * g + cells[:, 1]
    order = np.argsort(cell, kind="stable")
    start = np.empty(g * g + 1, dtype=np.int32)
    start[0] = 0
    np.cumsum(np.bincount(cell, minlength=g * g), out=start[1:])
    return g, start, pts[order], order.astype(np.int32)


class TorusSpace(GeometricSpace):
    """Unit torus ``[0, 1)^k`` with nearest-server (Voronoi) bins.

    Parameters
    ----------
    points:
        ``(n, k)`` server locations, distinct under the toroidal metric.

    Examples
    --------
    >>> t = TorusSpace([[0.25, 0.25], [0.75, 0.75]])
    >>> t.assign(np.array([[0.2, 0.2], [0.8, 0.8]]))
    array([0, 1])
    """

    def __init__(self, points) -> None:
        pts = as_float_array(points, "points", ndim=2)
        if pts.shape[0] < 1:
            raise ValueError("TorusSpace needs at least one server point")
        check_dimension(pts.shape[1], "dimension")
        if np.any((pts < 0.0) | (pts >= 1.0)):
            raise ValueError("points must lie in [0, 1)^k")
        check_distinct_torus_points(pts)
        self._pts = pts
        self.n = int(pts.shape[0])
        self.dim = int(pts.shape[1])
        # lookup structures, each built on first use
        self._tree: cKDTree | None = None
        self._grid: tuple[int, np.ndarray, np.ndarray, np.ndarray] | None = None
        self._measures: np.ndarray | None = None
        self._measure_samples = 1_000_000

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def random(cls, n: int, dim: int = 2, seed=None) -> "TorusSpace":
        """Place ``n`` servers independently and uniformly on the torus."""
        n = check_positive_int(n, "n")
        dim = check_dimension(dim, "dim")
        rng = resolve_rng(seed)
        return cls(rng.random((n, dim)))

    # ------------------------------------------------------------------
    # GeometricSpace interface
    # ------------------------------------------------------------------
    @property
    def points(self) -> np.ndarray:
        """Server locations (read-only view), shape ``(n, dim)``."""
        v = self._pts.view()
        v.flags.writeable = False
        return v

    def assign(self, points: np.ndarray) -> np.ndarray:
        """Owning bin (nearest server under the toroidal metric)."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.shape[-1] != self.dim:
            raise ValueError(
                f"points must have last dimension {self.dim}, got {pts.shape}"
            )
        if pts.size and (np.any(pts < 0.0) or np.any(pts >= 1.0)):
            raise ValueError("points must lie in [0, 1)^k")
        return self._nearest(pts.reshape(-1, self.dim)).reshape(pts.shape[:-1])

    def sample_choice_bins(
        self,
        rng: np.random.Generator,
        m: int,
        d: int,
        *,
        partitioned: bool = False,
    ) -> np.ndarray:
        """Draw ``(m, d)`` candidate bins from uniform torus points.

        ``partitioned=True`` partitions the torus into ``d`` slabs along
        the first coordinate (the natural generalization of Vöcking's
        ring intervals; the paper only uses partitioning on the ring).
        """
        u = rng.random((m, d, self.dim))
        if partitioned:
            u[..., 0] = (u[..., 0] + np.arange(d)[None, :]) / d
        return self._nearest(u.reshape(m * d, self.dim)).reshape(m, d)

    def _grid_index(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """Lazy grid-bucket index of the servers (``dim == 2``).

        ``G`` is the smallest power of two with ``G² >= 4n``: a cell
        holds at most 1/4 server on average, the density that measured
        fastest, or within 7% of it, from n = 2¹¹ to 2²⁰.  See
        :func:`grid_index` for the layout.
        """
        if self._grid is None:
            g = 1 << ((4 * self.n - 1).bit_length() + 1) // 2
            self._grid = grid_index(self._pts, g)
        return self._grid

    def _nearest(self, pts: np.ndarray) -> np.ndarray:
        """Nearest server of each row of ``pts``, shape ``(q, dim)``."""
        if self.dim == 2:
            backend = default_backend()
            if backend.torus_assign is not None:
                g, start, spts, sidx = self._grid_index()
                return backend.torus_assign(pts, start, spts, sidx, g)
        if self._tree is None:
            self._tree = cKDTree(self._pts, boxsize=1.0)
        _, idx = self._tree.query(pts)
        return np.asarray(idx, dtype=np.int64)

    def region_measures(self) -> np.ndarray:
        """Voronoi cell measures (cached).

        * k = 1: closed form — each server owns half of the gap to each
          circular neighbor (note this differs from :class:`RingSpace`,
          whose ownership is one-sided clockwise-successor).
        * k = 2: exact areas via periodic tiling.
        * k >= 3: Monte-Carlo estimate (``measure_samples`` probes).
        """
        if self._measures is None:
            if self.dim == 1:
                self._measures = self._exact_1d_measures()
            elif self.dim == 2:
                from repro.geo2d.voronoi import toroidal_voronoi_areas

                self._measures = toroidal_voronoi_areas(self._pts)
            else:
                from repro.geo2d.voronoi import monte_carlo_region_measures

                self._measures = monte_carlo_region_measures(
                    self._pts,
                    n_samples=self._measure_samples,
                    seed=np.random.SeedSequence(
                        abs(hash((self.n, self.dim))) % (1 << 63)
                    ),
                )
        return self._measures

    def _exact_1d_measures(self) -> np.ndarray:
        if self.n == 1:
            return np.ones(1)
        order = np.argsort(self._pts[:, 0])
        sorted_pos = self._pts[order, 0]
        gaps = np.empty(self.n)
        gaps[:-1] = np.diff(sorted_pos)
        gaps[-1] = 1.0 - sorted_pos[-1] + sorted_pos[0]
        # each point owns half of the gap on either side
        measures_sorted = 0.5 * (gaps + np.roll(gaps, 1))
        measures = np.empty(self.n)
        measures[order] = measures_sorted
        return measures

    # ------------------------------------------------------------------
    # torus-specific queries used by theory validation
    # ------------------------------------------------------------------
    def regions_at_least(self, c: float) -> int:
        """Number of Voronoi regions of area at least ``c / n`` (Lemma 9)."""
        if c < 0:
            raise ValueError(f"c must be non-negative, got {c}")
        return int(np.count_nonzero(self.region_measures() >= c / self.n))

    def toroidal_distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Euclidean distance on the torus between point arrays."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        delta = np.abs(a - b)
        delta = np.minimum(delta, 1.0 - delta)
        return np.sqrt(np.sum(delta**2, axis=-1))
