"""Voronoi cell areas on the unit torus.

The paper's torus analysis (Section 3) reasons about the *areas* of the
Voronoi regions induced by ``n`` uniform points on the 2-D unit torus.
We need those areas for two things:

* the ``smaller`` / ``larger`` tie-breaking strategies of Table 3's
  family applied on the torus, and
* empirical validation of Lemma 9's tail bound on the number of large
  regions.

Exact computation uses the standard periodic-tiling trick: replicate the
``n`` points into the 3x3 grid of unit translates, build a planar
Voronoi diagram of the ``9n`` copies with :class:`scipy.spatial.Voronoi`,
and read off the (bounded, convex) cells of the central copies.  Each
central cell's area equals the toroidal cell area whenever every cell
has diameter < 1, which holds with overwhelming probability for n >= 2
random points and is *verified* here by checking the areas sum to 1.

A Monte-Carlo estimator is provided as an independent cross-check and as
the fallback for dimension >= 3, where exact cell volumes are not
needed by any experiment.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import Voronoi, cKDTree

from repro.utils.rng import resolve_rng
from repro.utils.validation import (
    as_float_array,
    check_distinct_torus_points,
    check_positive_int,
)

__all__ = [
    "toroidal_voronoi_areas",
    "monte_carlo_region_measures",
    "polygon_area",
]

#: relative tolerance for the "areas sum to 1" sanity check
_AREA_SUM_RTOL = 1e-9


def polygon_area(vertices: np.ndarray) -> float:
    """Area of a convex polygon given unordered vertices (shoelace).

    The vertices are sorted by angle around their centroid first, which
    is valid because Voronoi cells are convex.

    Examples
    --------
    >>> polygon_area(np.array([[0, 0], [1, 0], [1, 1], [0, 1]]))
    1.0
    """
    verts = as_float_array(vertices, "vertices", ndim=2)
    if verts.shape[0] < 3:
        return 0.0
    centroid = verts.mean(axis=0)
    angles = np.arctan2(verts[:, 1] - centroid[1], verts[:, 0] - centroid[0])
    order = np.argsort(angles)
    v = verts[order]
    x, y = v[:, 0], v[:, 1]
    return float(0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)))


def _tile_3x3(points: np.ndarray) -> np.ndarray:
    """Replicate points into the 3x3 grid of unit translates.

    The original points occupy the first ``n`` rows (offset (0, 0)) so
    cell ``i`` of the output diagram corresponds to input point ``i``.
    """
    offsets = np.array(
        [
            (0.0, 0.0),
            (-1.0, -1.0),
            (-1.0, 0.0),
            (-1.0, 1.0),
            (0.0, -1.0),
            (0.0, 1.0),
            (1.0, -1.0),
            (1.0, 0.0),
            (1.0, 1.0),
        ]
    )
    return (points[None, :, :] + offsets[:, None, :]).reshape(-1, 2)


def toroidal_voronoi_areas(points) -> np.ndarray:
    """Exact Voronoi cell areas for points on the unit 2-torus.

    Parameters
    ----------
    points:
        ``(n, 2)`` array in ``[0, 1)^2`` with distinct rows.

    Returns
    -------
    ``(n,)`` array of areas, non-negative, summing to 1.

    Raises
    ------
    ValueError
        If points are out of range, duplicated, or the tiling produced
        an inconsistent diagram (areas not summing to 1), which signals
        a degenerate configuration.
    """
    pts = as_float_array(points, "points", ndim=2)
    if pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    n = pts.shape[0]
    if n == 0:
        raise ValueError("points must be non-empty")
    if np.any((pts < 0.0) | (pts >= 1.0)):
        raise ValueError("points must lie in [0, 1)^2")
    if n == 1:
        return np.ones(1)
    check_distinct_torus_points(pts)

    vor = Voronoi(_tile_3x3(pts))
    areas = np.empty(n)
    for i in range(n):
        region_idx = vor.point_region[i]
        region = vor.regions[region_idx]
        if -1 in region or len(region) == 0:
            raise ValueError(
                "central Voronoi cell is unbounded; configuration too "
                "degenerate for the 3x3 tiling (cell diameter >= 1)"
            )
        areas[i] = polygon_area(vor.vertices[region])
    total = areas.sum()
    if not np.isclose(total, 1.0, rtol=1e-6, atol=1e-9):
        raise ValueError(
            f"toroidal Voronoi areas sum to {total!r}, expected 1.0; "
            "degenerate configuration"
        )
    # remove the O(1e-12) numerical drift so downstream probability uses
    # an exact distribution
    return areas / total


def monte_carlo_region_measures(
    points,
    n_samples: int = 200_000,
    seed=None,
    *,
    workers: int = 1,
) -> np.ndarray:
    """Monte-Carlo estimate of nearest-neighbor region measures.

    Works in any dimension (points of shape ``(n, k)``); used as an
    independent cross-check of :func:`toroidal_voronoi_areas` and as the
    measure source for k >= 3 tori.

    Parameters
    ----------
    points:
        ``(n, k)`` server locations in ``[0, 1)^k``.
    n_samples:
        Number of uniform probes; the estimate of each measure has
        standard error ``sqrt(p (1-p) / n_samples)``.
    workers:
        Passed to :meth:`scipy.spatial.cKDTree.query` (-1 = all cores).
    """
    pts = as_float_array(points, "points", ndim=2)
    n_samples = check_positive_int(n_samples, "n_samples")
    n, k = pts.shape
    rng = resolve_rng(seed)
    tree = cKDTree(pts, boxsize=1.0)
    counts = np.zeros(n, dtype=np.int64)
    # probe in blocks to bound memory at ~8 MB regardless of n_samples
    block = 1 << 17
    remaining = n_samples
    while remaining > 0:
        b = min(block, remaining)
        queries = rng.random((b, k))
        _, owner = tree.query(queries, workers=workers)
        counts += np.bincount(owner, minlength=n)
        remaining -= b
    return counts / n_samples
