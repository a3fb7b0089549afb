import numpy as np
import pytest

from depthray.camera import (
    CameraIntrinsics,
    DistortionCoeffs,
    distort,
    normalized_to_pixel,
    pixel_to_normalized,
    undistort,
)

from conftest import sample_invertible_distortion


class TestIntrinsics:
    def test_rejects_nonpositive_focal_length(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(0.0, 1000.0, 960.0, 540.0, 1920, 1080)

    def test_rejects_principal_point_outside_image(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(1000.0, 1000.0, 2000.0, 540.0, 1920, 1080)


class TestProjection:
    def test_principal_point_maps_to_origin(self, intrinsics):
        assert normalized_to_pixel(0.0, 0.0, intrinsics) == (960.0, 540.0)
        assert pixel_to_normalized(960.0, 540.0, intrinsics) == (0.0, 0.0)

    def test_unit_normalized_offset(self, intrinsics):
        assert normalized_to_pixel(1.0, 0.0, intrinsics) == (1960.0, 540.0)
        assert pixel_to_normalized(1960.0, 1540.0, intrinsics) == (1.0, 1.0)

    def test_image_corner(self, intrinsics):
        n = pixel_to_normalized(0.0, 0.0, intrinsics)
        assert n == pytest.approx((-0.96, -0.54), abs=1e-15)

    def test_round_trip_identity(self, intrinsics):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = tuple(rng.uniform(-1.0, 1.0, 2))
            back = pixel_to_normalized(*normalized_to_pixel(*n, intrinsics), intrinsics)
            assert back == pytest.approx(n, abs=1e-12)

    def test_out_of_frame_pixels_are_representable(self, intrinsics):
        # trackers overshoot the frame; the mapping must not clamp
        n = pixel_to_normalized(-50.0, 1200.0, intrinsics)
        assert normalized_to_pixel(*n, intrinsics) == pytest.approx((-50.0, 1200.0), abs=1e-12)

    def test_rejects_non_finite_pixel(self, intrinsics):
        with pytest.raises(ValueError):
            pixel_to_normalized(float("nan"), 0.0, intrinsics)


class TestDistort:
    def test_zero_coefficients_identity(self):
        d = DistortionCoeffs()
        assert d.is_zero()
        n = (0.123, -0.456)
        assert distort(*n, d) == n

    def test_pure_radial_polynomial(self):
        # direct evaluation: x * (1 + k1 * r^2) with r^2 = 0.25
        d = DistortionCoeffs(k1=0.1)
        assert distort(0.5, 0.0, d) == pytest.approx((0.5125, 0.0), abs=1e-15)

    def test_origin_fixed_for_any_coefficients(self):
        d = DistortionCoeffs(k1=-0.3, k2=0.2, k3=0.1, p1=0.01, p2=-0.02)
        assert distort(0.0, 0.0, d) == (0.0, 0.0)

    def test_radial_model_is_odd(self):
        # without tangential terms the model commutes with point reflection
        d = DistortionCoeffs(k1=-0.2, k2=0.05, k3=0.01)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x, y = rng.uniform(-0.7, 0.7, 2)
            xd, yd = distort(x, y, d)
            xn, yn = distort(-x, -y, d)
            assert (xn, yn) == pytest.approx((-xd, -yd), abs=1e-15)

    def test_against_reference_polynomial(self):
        # independent full-model evaluation, long-hand
        d = DistortionCoeffs(k1=-0.1, k2=0.05, k3=0.0, p1=0.001, p2=-0.002)
        x, y = 0.3, -0.2
        r2 = x * x + y * y
        radial = 1 + d.k1 * r2 + d.k2 * r2**2 + d.k3 * r2**3
        expected = (
            x * radial + 2 * d.p1 * x * y + d.p2 * (r2 + 2 * x * x),
            y * radial + d.p1 * (r2 + 2 * y * y) + 2 * d.p2 * x * y,
        )
        assert distort(x, y, d) == pytest.approx(expected, abs=1e-16)
        assert expected == pytest.approx((0.2956135, -0.197119), abs=1e-10)


class TestUndistort:
    def test_zero_coefficients_exact_passthrough(self):
        n = (0.37, -0.81)
        back, converged = undistort(*n, DistortionCoeffs())
        assert back == n
        assert converged

    def test_origin_is_fixed_point(self):
        d = DistortionCoeffs(k1=0.2, k2=-0.1, k3=0.05, p1=0.005, p2=-0.003)
        back, converged = undistort(0.0, 0.0, d)
        assert back == pytest.approx((0.0, 0.0), abs=1e-12)
        assert converged

    def test_round_trip_reference_point(self):
        d = DistortionCoeffs(k1=-0.1, k2=0.05, k3=0.0, p1=0.001, p2=-0.002)
        n = (0.3, -0.2)
        back, converged = undistort(*distort(*n, d), d)
        assert back == pytest.approx(n, abs=1e-9)
        assert converged

    def test_residual_always_below_tolerance(self):
        d = DistortionCoeffs(k1=0.25, k2=0.1, k3=-0.05, p1=0.008, p2=-0.006)
        n_d = distort(0.55, 0.35, d)
        n, converged = undistort(*n_d, d)
        assert converged
        assert distort(*n, d) == pytest.approx(n_d, abs=1e-10)

    def test_round_trip_random_invertible_models(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            d = sample_invertible_distortion(rng, k_max=0.3, p_max=0.01, r_max=0.85)
            r = 0.8 * np.sqrt(rng.uniform())
            ang = rng.uniform(0.0, 2.0 * np.pi)
            n = (r * np.cos(ang), r * np.sin(ang))
            back, converged = undistort(*distort(*n, d), d)
            assert back == pytest.approx(n, abs=1e-9)
            assert converged

    def test_strong_coefficients_round_trip(self):
        # wider coefficient range, still restricted to invertible models
        rng = np.random.default_rng(29)
        for _ in range(200):
            d = sample_invertible_distortion(rng, k_max=0.5, p_max=0.01, r_max=0.85)
            r = 0.8 * np.sqrt(rng.uniform())
            ang = rng.uniform(0.0, 2.0 * np.pi)
            n = (r * np.cos(ang), r * np.sin(ang))
            back, converged = undistort(*distort(*n, d), d)
            assert back == pytest.approx(n, abs=1e-9)
            assert converged

    def test_point_without_preimage_raises(self):
        # k1 = -0.5 folds at rho ~ 0.816 with peak image radius ~ 0.544,
        # so 0.7 lies outside the invertible sheet entirely
        _, converged = undistort(0.7, 0.0, DistortionCoeffs(k1=-0.5))
        assert not converged

    def test_rejects_non_finite_input(self):
        with np.errstate(all="ignore"):
            _, converged = undistort(float("inf"), 0.0, DistortionCoeffs(k1=0.1))
        assert not converged


def test_distortion_coefficients_must_be_finite():
    with pytest.raises(ValueError):
        DistortionCoeffs(k1=float("nan"))
