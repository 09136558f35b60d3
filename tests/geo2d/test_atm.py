"""Tests for the ATM assignment model (paper Section 1.1 example)."""

import numpy as np
import pytest

from repro.geo2d.atm import AtmAssignmentModel
from repro.geo2d.pointsets import clustered_points, uniform_points
from repro.kernels import available_backends


@pytest.fixture
def model():
    return AtmAssignmentModel(uniform_points(64, seed=0))


class TestConstruction:
    def test_rejects_3d(self):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            AtmAssignmentModel(np.zeros((4, 3)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AtmAssignmentModel([[0.5, 1.2]])

    def test_rejects_duplicate_machines(self):
        with pytest.raises(ValueError, match="distinct on the torus"):
            AtmAssignmentModel([[0.25, 0.5], [0.75, 0.125], [0.25, 0.5]])


class TestNearestMachine:
    def test_matches_torus_metric(self, model):
        locs = uniform_points(100, seed=1)
        owners = model.nearest_machine(locs)
        pts = model.machines
        for loc, got in zip(locs[:20], owners[:20]):
            d = np.abs(pts - loc)
            d = np.minimum(d, 1 - d)
            assert got == int(np.argmin((d**2).sum(axis=1)))

    def test_single_location_and_range(self, model):
        one = model.nearest_machine([0.5, 0.5])
        assert one.shape == () and one == model.nearest_machine([[0.5, 0.5]])[0]
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            model.nearest_machine([[1.05, 0.5]])

    @pytest.mark.parametrize(
        "backend", [n for n, ok in available_backends().items() if ok])
    def test_same_on_every_backend(self, model, backend, monkeypatch):
        """The torus_assign kernel (cext) and cKDTree (numpy) agree."""
        locs = uniform_points(500, seed=16)
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        ref = model.nearest_machine(locs)
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
        np.testing.assert_array_equal(model.nearest_machine(locs), ref)


class TestAssign:
    def test_conserves_customers(self, model):
        locs = np.stack(
            [uniform_points(256, seed=2), uniform_points(256, seed=3)], axis=1
        )
        report = model.assign(locs, seed=4)
        assert report.loads.sum() == 256
        assert report.assignments.shape == (256,)
        assert report.d == 2

    def test_single_location_per_customer(self, model):
        locs = uniform_points(128, seed=5)
        report = model.assign(locs, seed=6)
        assert report.d == 1
        # d = 1 means pure nearest-neighbor: assignment == nearest machine
        assert np.array_equal(report.assignments, model.nearest_machine(locs))

    def test_two_choices_balance_better(self, model):
        """The bank example: home+work beats home-only."""
        m = 640
        one = model.assign(uniform_points(m, seed=7), seed=8)
        two = model.assign(
            np.stack(
                [uniform_points(m, seed=7), uniform_points(m, seed=9)], axis=1
            ),
            seed=8,
        )
        assert two.max_load <= one.max_load
        assert two.imbalance <= one.imbalance

    def test_clustered_customers_still_helped(self, model):
        """Footnote 2: non-uniform demand; two choices should still
        reduce the maximum load."""
        m = 640
        home = clustered_points(m, n_clusters=5, spread=0.05, seed=10)
        work = clustered_points(m, n_clusters=5, spread=0.05, seed=11)
        one = model.assign(home, seed=12)
        two = model.assign(np.stack([home, work], axis=1), seed=12)
        assert two.max_load < one.max_load

    def test_strategy_smaller_accepted(self, model):
        locs = np.stack(
            [uniform_points(64, seed=13), uniform_points(64, seed=14)], axis=1
        )
        report = model.assign(locs, strategy="smaller", seed=15)
        assert report.loads.sum() == 64

    def test_rejects_bad_shape(self, model):
        with pytest.raises(ValueError, match=r"\(m, d, 2\)"):
            model.assign(np.zeros((4, 2, 3)))

    def test_histogram_consistent(self, model):
        locs = uniform_points(100, seed=16)
        report = model.assign(locs, seed=17)
        hist = report.histogram()
        assert (hist * np.arange(hist.size)).sum() == 100
