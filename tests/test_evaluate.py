import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from depthray.errors import DegenerateGeometry, EmptyTrajectory, LengthMismatch
from depthray.evaluate import (
    GroundTruthFrame,
    _match_sorted,
    enu_to_ground_truth,
    rescale_grid_point,
    time_sync,
    trajectory_errors,
)


class TestGroundTruthTransform:
    def test_identity_frame(self):
        frame = GroundTruthFrame(yaw=0.0)
        assert_allclose(enu_to_ground_truth([1.2, -3.4, 5.6], frame), [1.2, -3.4, 5.6])

    def test_survey_yaw(self):
        # passive z-rotation evaluated long-hand at the survey angle
        yaw = math.radians(-67.3)
        frame = GroundTruthFrame(yaw=yaw)
        expected = [math.cos(yaw), -math.sin(yaw), 0.0]
        result = enu_to_ground_truth([1.0, 0.0, 0.0], frame)
        assert_allclose(result, expected, atol=1e-15)
        assert result[0] == pytest.approx(0.386, abs=1e-3)
        assert result[1] == pytest.approx(0.922, abs=1e-3)

    def test_pure_translation(self):
        frame = GroundTruthFrame(yaw=0.0, translation=np.array([2.0, 3.0, 0.0]))
        assert_allclose(enu_to_ground_truth([1.0, 1.0, 0.0], frame), [3.0, 4.0, 0.0])

    def test_yaw_bounds(self):
        with pytest.raises(ValueError):
            GroundTruthFrame(yaw=4.0)


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
        with pytest.raises(DegenerateGeometry):
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


class TestTimeSync:
    def test_exact_match(self):
        t = np.arange(10.0)
        est_idx, gt_idx, dropped = time_sync(t, t, max_gap=0.05)
        assert_allclose(est_idx, np.arange(10))
        assert_allclose(gt_idx, np.arange(10))
        assert dropped == 0

    def test_nearest_neighbor_within_gap(self):
        est_idx, gt_idx, dropped = time_sync([0.0, 1.02, 5.0], [0.0, 1.0, 2.0], max_gap=0.05)
        assert est_idx.tolist() == [0, 1]
        assert gt_idx.tolist() == [0, 1]
        assert dropped == 1

    def test_unsorted_ground_truth(self):
        est_idx, gt_idx, dropped = time_sync([1.0, 2.0], [2.0, 0.0, 1.0], max_gap=0.1)
        assert gt_idx.tolist() == [2, 0]
        assert dropped == 0

    def test_empty_raises(self):
        with pytest.raises(EmptyTrajectory):
            time_sync([], [1.0], max_gap=0.1)

    def test_per_block_matching_of_a_track_sorted_once(self):
        # recover sorts the origin track once and matches each block of
        # estimates against it; the pairs must be time_sync's, ties included
        rng = np.random.default_rng(11)
        t_gt = rng.permutation(np.concatenate([np.round(rng.uniform(0, 50, 300), 1)] * 2))
        t_est = np.sort(rng.uniform(-1, 51, 1000))
        est_idx, gt_idx, dropped = time_sync(t_est, t_gt, max_gap=0.04)
        assert 0 < dropped < len(t_est)
        order = np.argsort(t_gt, kind="stable")
        blocks = [
            _match_sorted(t_est[start:start + 64], t_gt[order], max_gap=0.04)
            for start in range(0, len(t_est), 64)
        ]
        est_blocks = [b[0] + k * 64 for k, b in enumerate(blocks)]
        assert np.concatenate(est_blocks).tolist() == est_idx.tolist()
        assert np.concatenate([order[b[1]] for b in blocks]).tolist() == gt_idx.tolist()
        assert sum(b[2] for b in blocks) == dropped
