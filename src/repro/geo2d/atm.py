"""The bank / automatic-teller-machine assignment model (paper, Sec. 1.1).

"Suppose that one's bank wanted to try to balance the load among its
automatic teller machines throughout the city.  For each customer, it
suggests a base machine, which will be the closest machine to either the
customer's home or work location."

Machines are servers on the 2-D torus; each customer supplies ``d``
candidate locations (home, work, ...) and is assigned to the least
loaded machine among the nearest machines of those locations.  With
``d = 1`` (home only) this is plain nearest-neighbor assignment; with
``d = 2`` it is exactly the paper's geometric two-choice process, except
that candidate locations may follow a *non-uniform* customer
distribution (footnote 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.loads import load_histogram, load_imbalance, max_load
from repro.core.strategies import TieBreak, decide_row_scalar
from repro.core.torus import TorusSpace
from repro.utils.rng import resolve_rng
from repro.utils.validation import as_float_array, check_positive_int

__all__ = ["AtmAssignmentModel", "AtmReport"]


@dataclass(frozen=True)
class AtmReport:
    """Outcome of assigning all customers to machines."""

    loads: np.ndarray
    assignments: np.ndarray
    d: int

    @property
    def max_load(self) -> int:
        return max_load(self.loads)

    @property
    def imbalance(self) -> float:
        return load_imbalance(self.loads)

    def histogram(self) -> np.ndarray:
        return load_histogram(self.loads)


class AtmAssignmentModel:
    """Sequentially assign customers to the least loaded nearby machine.

    Parameters
    ----------
    machines:
        ``(n, 2)`` distinct machine locations in ``[0, 1)^2`` (torus).
        Nearest-machine queries go through :class:`TorusSpace`, so they
        reach the ``torus_assign`` kernel where the backend has one.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.geo2d import uniform_points
    >>> model = AtmAssignmentModel(uniform_points(64, seed=0))
    >>> locs = uniform_points(256, seed=1), uniform_points(256, seed=2)
    >>> report = model.assign(np.stack(locs, axis=1), seed=3)
    >>> int(report.loads.sum())
    256
    """

    def __init__(self, machines) -> None:
        pts = as_float_array(machines, "machines", ndim=2)
        if pts.shape[1] != 2:
            raise ValueError(f"machines must have shape (n, 2), got {pts.shape}")
        self._space = TorusSpace(pts)
        self.machines = pts
        self.n = int(pts.shape[0])

    def nearest_machine(self, locations) -> np.ndarray:
        """Index of the nearest machine (toroidal metric) per location.

        Locations must lie in ``[0, 1)^2``, as :meth:`TorusSpace.assign`
        requires; the result has the shape of ``locations[..., 0]``.
        """
        locs = as_float_array(locations, "locations")
        return self._space.assign(locs).reshape(locs.shape[:-1])

    def assign(
        self,
        candidate_locations,
        *,
        strategy: TieBreak | str = TieBreak.RANDOM,
        seed=None,
    ) -> AtmReport:
        """Assign customers in arrival order.

        Parameters
        ----------
        candidate_locations:
            ``(m, d, 2)`` array: customer ``t`` offers ``d`` candidate
            locations (e.g. home and work).  ``d`` may be 1.
        strategy:
            Tie-break among equally loaded candidate machines.
        """
        locs = as_float_array(candidate_locations, "candidate_locations")
        if locs.ndim == 2:  # (m, 2) == single location per customer
            locs = locs[:, None, :]
        if locs.ndim != 3 or locs.shape[-1] != 2:
            raise ValueError(
                f"candidate_locations must have shape (m, d, 2), got {locs.shape}"
            )
        m, d, _ = locs.shape
        check_positive_int(m, "number of customers")
        strat = TieBreak.coerce(strategy)
        rng = resolve_rng(seed)

        candidates = self.nearest_machine(locs.reshape(m * d, 2)).reshape(m, d)
        # measures for smaller/larger tie-breaks: exact Voronoi areas
        measures = None
        if strat in (TieBreak.SMALLER, TieBreak.LARGER):
            measures = self._space.region_measures()

        loads = np.zeros(self.n, dtype=np.int64)
        assignments = np.empty(m, dtype=np.int64)
        tiebreaks = rng.random(m)
        for t in range(m):
            cand = candidates[t]
            j = decide_row_scalar(
                loads[cand].tolist(),
                None if measures is None else measures[cand].tolist(),
                float(tiebreaks[t]),
                strat,
            )
            chosen = int(cand[j])
            assignments[t] = chosen
            loads[chosen] += 1
        return AtmReport(loads=loads, assignments=assignments, d=d)
