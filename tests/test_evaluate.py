import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from depthray.errors import EmptyTrajectory, LengthMismatch
from depthray.evaluate import (
    enu_to_ground_truth,
    match_sorted,
    rescale_grid_point,
    trajectory_errors,
)

# times on a dyadic grid, so every difference of two is exact and a tie in
# distance is a true tie; quarter steps make ties and gaps equal to max_gap
TIMES = st.one_of(st.integers(-40, 40).map(lambda k: k / 4),
                  st.integers(-10 * 2**20, 10 * 2**20).map(lambda k: k / 2**20))


class TestGroundTruthTransform:
    def test_identity_frame(self):
        assert_allclose(enu_to_ground_truth([1.2, -3.4, 5.6], 0.0, np.zeros(3)), [1.2, -3.4, 5.6])

    def test_survey_yaw(self):
        # passive z-rotation evaluated long-hand at the survey angle
        yaw = math.radians(-67.3)
        expected = [math.cos(yaw), -math.sin(yaw), 0.0]
        result = enu_to_ground_truth([1.0, 0.0, 0.0], yaw, np.zeros(3))
        assert_allclose(result, expected, atol=1e-15)
        assert result[0] == pytest.approx(0.386, abs=1e-3)
        assert result[1] == pytest.approx(0.922, abs=1e-3)

    def test_pure_translation(self):
        assert_allclose(enu_to_ground_truth([1.0, 1.0, 0.0], 0.0, [2.0, 3.0, 0.0]), [3.0, 4.0, 0.0])

    @pytest.mark.parametrize("yaw, translation", [
        (math.nan, [0.0, 0.0, 0.0]), (math.inf, [0.0, 0.0, 0.0]),
        (0.0, [0.0, math.nan, 0.0]), (0.0, [0.0, 0.0]),
    ], ids=["nan_yaw", "inf_yaw", "nan_translation", "short_translation"])
    def test_non_finite_frame_refused(self, yaw, translation):
        with pytest.raises(ValueError, match="finite"):
            enu_to_ground_truth([1.0, 1.0, 0.0], yaw, translation)


class TestGridRescaling:
    def test_surface_target_unchanged(self):
        assert_allclose(rescale_grid_point([2.0, 1.0], [0.0, 0.0], 25.0, 0.0), [2.0, 1.0])

    def test_similar_triangles_factor(self):
        # (a_cam + d) / a_cam = 27.5 / 25 = 1.1 about the nadir
        result = rescale_grid_point([2.0, 1.0], [0.0, 0.0], 25.0, 2.5)
        assert_allclose(result, [2.2, 1.1], atol=1e-12)

    def test_nadir_is_fixed_point(self):
        nadir = np.array([1.5, -0.7])
        assert_allclose(rescale_grid_point(nadir, nadir, 20.0, 3.0), nadir)

    def test_scaling_composes(self):
        # scaling to depth d1 and on to d1+d2 equals the single step
        grid = np.array([3.0, -2.0])
        nadir = np.array([0.5, 0.25])
        a_cam, d1, d2 = 25.0, 1.2, 0.8
        once = rescale_grid_point(grid, nadir, a_cam, d1 + d2)
        staged = rescale_grid_point(
            rescale_grid_point(grid, nadir, a_cam, d1), nadir, a_cam + d1, d2
        )
        assert_allclose(staged, once, atol=1e-12)

    def test_zero_camera_height_degenerate(self):
        with pytest.raises(ValueError, match="must be positive"):
            rescale_grid_point([1.0, 1.0], [0.0, 0.0], 0.0, 1.0)


class TestTrajectoryErrors:
    def test_identical_sequences(self):
        xy = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        report = trajectory_errors(xy, xy)
        assert report["mae"] == 0.0
        assert report["rmse"] == 0.0
        assert report["n_samples"] == 3

    def test_constant_offset_345(self):
        gt = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5], [7.0, -3.0]])
        est = gt + np.array([0.3, 0.4])
        report = trajectory_errors(est, gt)
        assert report["mae"] == pytest.approx(0.5, abs=1e-12)
        assert report["rmse"] == pytest.approx(0.5, abs=1e-12)

    def test_two_point_definition(self):
        est = np.array([[0.0, 0.0], [1.0, 0.0]])
        gt = np.zeros((2, 2))
        report = trajectory_errors(est, gt)
        assert report["mae"] == pytest.approx(0.5, abs=1e-15)
        assert report["rmse"] == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert report["rmse"] >= report["mae"]

    def test_rmse_never_below_mae(self):
        rng = np.random.default_rng(79)
        for _ in range(1000):
            n = rng.integers(1, 40)
            est = rng.normal(0.0, 5.0, (n, 2))
            gt = rng.normal(0.0, 5.0, (n, 2))
            report = trajectory_errors(est, gt)
            assert report["rmse"] >= report["mae"] - 1e-12

    def test_invariant_under_common_rigid_transform(self):
        rng = np.random.default_rng(83)
        est = rng.normal(0.0, 3.0, (60, 2))
        gt = est + rng.normal(0.0, 0.5, (60, 2))
        base = trajectory_errors(est, gt)
        for _ in range(20):
            ang = rng.uniform(-np.pi, np.pi)
            c, s = np.cos(ang), np.sin(ang)
            r = np.array([[c, -s], [s, c]])
            t = rng.uniform(-10.0, 10.0, 2)
            moved = trajectory_errors(est @ r.T + t, gt @ r.T + t)
            assert moved["mae"] == pytest.approx(base["mae"], abs=1e-12)
            assert moved["rmse"] == pytest.approx(base["rmse"], abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyTrajectory):
            trajectory_errors(np.empty((0, 2)), np.empty((0, 2)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            trajectory_errors(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_constant_large_residual(self):
        # rounding puts this RMSE a few ulps below the equal MAE
        report = trajectory_errors(np.full((6, 2), [99999.9, 0.0]), np.zeros((6, 2)))
        assert report == {"mae": 99999.90000000001, "rmse": 99999.89999999998, "n_samples": 6}


class TestMatchSorted:
    def test_exact_match(self):
        t = np.arange(10.0)
        idx, ref_idx, dropped = match_sorted(t, t, max_gap=0.05)
        assert_allclose(idx, np.arange(10))
        assert_allclose(ref_idx, np.arange(10))
        assert dropped == 0

    def test_nearest_neighbor_within_gap(self):
        idx, ref_idx, dropped = match_sorted([0.0, 1.02, 5.0], [0.0, 1.0, 2.0], max_gap=0.05)
        assert idx.tolist() == [0, 1]
        assert ref_idx.tolist() == [0, 1]
        assert dropped == 1

    def test_empty_raises(self):
        with pytest.raises(EmptyTrajectory):
            match_sorted([1.0], [], max_gap=0.1)

    # distinct reference times: of equal ones, the last may be the one matched
    @given(
        t=st.lists(TIMES, max_size=20),
        ref=st.lists(TIMES, min_size=1, max_size=20, unique=True).map(sorted),
        max_gap=st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.75]),
    )
    def test_matches_the_brute_force_nearest(self, t, ref, max_gap):
        gaps = np.abs(np.subtract.outer(np.asarray(t, dtype=float), ref))
        nearest = np.argmin(gaps, axis=1)  # the first of equal minima
        keep = gaps.min(axis=1) <= max_gap
        idx, ref_idx, dropped = match_sorted(t, ref, max_gap)
        assert idx.tolist() == np.flatnonzero(keep).tolist()
        assert ref_idx.tolist() == nearest[keep].tolist()
        assert dropped == np.count_nonzero(~keep)

    def test_per_block_matching_of_a_track_sorted_once(self):
        # recover sorts the origin track once and matches each block of
        # estimates against it; the pairs must be those of one whole call,
        # ties included
        rng = np.random.default_rng(11)
        t_ref = np.sort(np.concatenate([np.round(rng.uniform(0, 50, 300), 1)] * 2))
        t_est = np.sort(rng.uniform(-1, 51, 1000))
        idx, ref_idx, dropped = match_sorted(t_est, t_ref, max_gap=0.04)
        assert 0 < dropped < len(t_est)
        blocks = [
            match_sorted(t_est[start:start + 64], t_ref, max_gap=0.04)
            for start in range(0, len(t_est), 64)
        ]
        assert np.concatenate([b[0] + k * 64 for k, b in enumerate(blocks)]).tolist() == idx.tolist()
        assert np.concatenate([b[1] for b in blocks]).tolist() == ref_idx.tolist()
        assert sum(b[2] for b in blocks) == dropped
