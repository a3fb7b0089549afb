import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from depthray.geodesy import (
    WGS84,
    Ellipsoid,
    _checked_geodetic,
    _prime_vertical_radius,
    ecef_to_geodetic,
    enu_to_ecef,
    geodetic_to_ecef,
)

from conftest import bowring_oracle, geodetic_deg, random_geodetic


def prime_vertical_radius(lat):
    """N on WGS84 at latitudes `lat` (radians), through the private formula."""
    lat = np.asarray(lat, dtype=float)
    return _prime_vertical_radius(np.cos(lat), np.sin(lat), WGS84)


class TestPrimeVerticalRadius:
    def test_equator_equals_equatorial_radius(self):
        assert prime_vertical_radius(0.0) == pytest.approx(6378137.0)

    def test_pole_value(self):
        # r_e^2 / r_p, by direct formula evaluation
        assert prime_vertical_radius(np.pi / 2) == pytest.approx(6399593.625758674, abs=1e-6)

    def test_even_in_latitude(self):
        rng = np.random.default_rng(31)
        lat = rng.uniform(0.0, np.pi / 2, 100)
        assert_allclose(prime_vertical_radius(lat), prime_vertical_radius(-lat), rtol=1e-15)

    def test_bounded_by_radii_ratio(self):
        lat = np.linspace(-np.pi / 2, np.pi / 2, 181)
        n = prime_vertical_radius(lat)
        assert np.all(n >= WGS84.r_e - 1e-6)
        assert np.all(n <= WGS84.r_e**2 / WGS84.r_p + 1e-6)


class TestGeodeticToEcef:
    def test_equator_prime_meridian(self):
        e = geodetic_to_ecef(np.array([0.0, 0.0, 0.0]))
        assert tuple(e) == pytest.approx((6378137.0, 0.0, 0.0), abs=1e-9)

    def test_north_pole_lands_on_polar_radius(self):
        e = geodetic_to_ecef(np.array([np.pi / 2, 0.0, 0.0]))
        assert e[2] == pytest.approx(6356752.314245, abs=1e-6)
        assert np.hypot(e[0], e[1]) < 1e-6

    def test_height_offsets_along_normal_at_equator(self):
        e = geodetic_to_ecef(np.array([0.0, 0.0, 100.0]))
        assert tuple(e) == pytest.approx((6378237.0, 0.0, 0.0), abs=1e-9)


class TestEnuToEcef:
    def test_origin_maps_to_reference(self):
        ref = geodetic_deg(42.8, 17.7, 30.0)
        e = enu_to_ecef([0.0, 0.0, 0.0], ref)
        e0 = geodetic_to_ecef(ref)
        assert tuple(e) == pytest.approx(tuple(e0), abs=1e-9)

    def test_up_is_plus_x_at_equator(self):
        e = enu_to_ecef([0.0, 0.0, 1.0], np.array([0.0, 0.0, 0.0]))
        assert tuple(e) == pytest.approx((6378138.0, 0.0, 0.0), abs=1e-9)

    def test_east_is_plus_y_at_equator(self):
        e = enu_to_ecef([1.0, 0.0, 0.0], np.array([0.0, 0.0, 0.0]))
        assert tuple(e) == pytest.approx((6378137.0, 1.0, 0.0), abs=1e-9)

    def test_rotation_block_orthonormal(self):
        # the ENU axes enu_to_ecef applies, read off from 1 km steps along
        # each, are orthonormal and right-handed
        rng = np.random.default_rng(37)
        for _ in range(200):
            ref = np.array([rng.uniform(-np.pi / 2, np.pi / 2), rng.uniform(-np.pi, np.pi), 0.0])
            e = enu_to_ecef(np.vstack([np.zeros(3), 1000.0 * np.eye(3)]), np.tile(ref, (4, 1)))
            r = (e[1:] - e[0]).T / 1000.0
            assert_allclose(r.T @ r, np.eye(3), atol=1e-11)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-11)

    def test_affine_in_the_enu_point(self):
        rng = np.random.default_rng(41)
        ref = geodetic_deg(-33.9, 18.4, 52.0)
        # the textbook rotation, columns east, north and up in ECEF axes
        sl, cl, so, co = np.sin(ref[0]), np.cos(ref[0]), np.sin(ref[1]), np.cos(ref[1])
        r = np.array([[-so, -sl * co, cl * co], [co, -sl * so, cl * so], [0.0, cl, sl]])
        for _ in range(50):
            pa, pb = rng.uniform(-500.0, 500.0, (2, 3))
            ea = enu_to_ecef(pa, ref)
            eb = enu_to_ecef(pb, ref)
            assert_allclose(ea - eb, r @ (pa - pb), atol=1e-9)

    def test_longitude_shift_rotates_about_z(self):
        rng = np.random.default_rng(43)
        p = np.array([120.0, -40.0, 7.0])
        for _ in range(25):
            lat = rng.uniform(-1.2, 1.2)
            lon = rng.uniform(-np.pi, np.pi)
            dlon = rng.uniform(-1.0, 1.0)
            e1 = enu_to_ecef(p, np.array([lat, lon, 0.0]))
            e2 = enu_to_ecef(p, np.array([lat, lon + dlon, 0.0]))
            c, s = np.cos(dlon), np.sin(dlon)
            rotated = np.array(
                [c * e1[0] - s * e1[1], s * e1[0] + c * e1[1], e1[2]]
            )
            assert_allclose(e2, rotated, atol=1e-8)


class TestEcefToGeodetic:
    def test_equator_inverse(self):
        g = ecef_to_geodetic([6378137.0, 0.0, 0.0])
        assert (g[0], g[1]) == pytest.approx((0.0, 0.0), abs=1e-12)
        assert g[2] == pytest.approx(0.0, abs=1e-6)

    def test_round_trip_random_points(self):
        rng = np.random.default_rng(47)
        g = random_geodetic(rng, 1000)
        e = geodetic_to_ecef(g)
        back = ecef_to_geodetic(e)
        e2 = geodetic_to_ecef(back)
        d = e - e2
        err = np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2)
        assert np.max(err) < 1e-6

    def test_matches_iterative_oracle(self):
        rng = np.random.default_rng(53)
        g = random_geodetic(rng, 1000, h_low=0.0, h_high=0.0)
        e = geodetic_to_ecef(g)
        lat_o, lon_o, h_o = bowring_oracle(e[..., 0], e[..., 1], e[..., 2])
        back = ecef_to_geodetic(e)
        assert np.max(np.abs(back[:, 0] - lat_o)) < 1e-9
        assert np.max(np.abs(back[:, 1] - lon_o)) < 1e-12
        assert np.max(np.abs(back[:, 2] - h_o)) < 1e-6

    def test_near_axis_fallback(self):
        # 0.7 m off the rotation axis, 500 m above the pole
        e = np.array([0.5, -0.5, WGS84.r_p + 500.0])
        g = ecef_to_geodetic(e)
        back = geodetic_to_ecef(g)
        assert tuple(back) == pytest.approx(tuple(e), abs=1e-6)
        assert g[0] == pytest.approx(np.pi / 2, abs=1e-3)

    @pytest.mark.parametrize("ell", [WGS84, Ellipsoid(r_e=3396190.0, r_p=3376200.0)])
    def test_near_axis_round_trip(self, ell):
        # within 1 m of the rotation axis (and on it), over both poles, from
        # 10 km below to 100 km above the ellipsoid
        rng = np.random.default_rng(61)
        x, y = rng.uniform(-1.0, 1.0, (2, 20_000))
        x[:4] = y[:4] = 0.0
        h = np.concatenate([[-1e4, 1e5, -1e4, 1e5], rng.uniform(-1e4, 1e5, 19_996)])
        z = np.tile([1.0, -1.0], 10_000) * (ell.r_p + h)
        back = geodetic_to_ecef(ecef_to_geodetic(np.stack([x, y, z], axis=-1), ell), ell)
        err = np.sqrt((back[..., 0] - x) ** 2 + (back[..., 1] - y) ** 2 + (back[..., 2] - z) ** 2)
        assert np.max(err) <= 1e-8

    def test_exactly_on_axis(self):
        g = ecef_to_geodetic([0.0, 0.0, WGS84.r_p + 100.0])
        assert g[0] == pytest.approx(np.pi / 2, abs=1e-12)
        assert g[2] == pytest.approx(100.0, abs=1e-6)

    def test_southern_hemisphere(self):
        g0 = geodetic_deg(-45.5, 170.2, 1234.0)
        g = ecef_to_geodetic(geodetic_to_ecef(g0))
        assert g[0] == pytest.approx(g0[0], abs=1e-12)
        assert g[1] == pytest.approx(g0[1], abs=1e-12)
        assert g[2] == pytest.approx(g0[2], abs=1e-6)


class TestTypes:
    def test_ellipsoid_ordering_enforced(self):
        with pytest.raises(ValueError):
            Ellipsoid(r_e=100.0, r_p=200.0)

    def test_latitude_bounds_enforced(self):
        with pytest.raises(ValueError, match="latitude"):
            geodetic_to_ecef(np.array([2.0, 0.0, 0.0]))

    def test_longitude_wrapped(self):
        g = _checked_geodetic(np.array([0.0, 3 * np.pi / 2, 0.0]))
        assert g[1] == pytest.approx(-np.pi / 2)

    @given(st.floats(-np.pi, np.pi))
    @example(lon=-np.pi)
    @example(lon=-0.0)
    def test_longitude_in_range_is_kept_bit_for_bit(self, lon):
        got = _checked_geodetic(np.array([0.5, lon, 10.0]))[1]
        want = np.pi if lon == -np.pi else lon
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_far_point_warns(self):
        with pytest.warns(RuntimeWarning, match="100 km"):
            far = geodetic_to_ecef(np.array([0.0, 0.0, WGS84.r_e]))
        with pytest.warns(RuntimeWarning, match="100 km"):
            ecef_to_geodetic(far)

    # a non-finite geodetic point is refused on input, before it yields a
    # non-finite ECEF point; an ENU or ECEF one where it becomes ECEF
    @pytest.mark.parametrize("convert, message", [
        (lambda: geodetic_to_ecef(np.array([0.0, np.nan, 0.0])), "longitude must be finite"),
        (lambda: enu_to_ecef(np.zeros(3), [0.0, np.nan, 0.0]), "longitude must be finite"),
        (lambda: enu_to_ecef([np.nan, 0.0, 0.0], np.zeros(3)), "ECEF coordinates must be finite"),
        (lambda: ecef_to_geodetic([[WGS84.r_e, 0.0, 0.0], [0.0, np.inf, 0.0]]),
         "ECEF coordinates must be finite"),
    ], ids=["geodetic_to_ecef", "enu_to_ecef_ref", "enu_to_ecef", "ecef_to_geodetic"])
    def test_non_finite_point_refused(self, convert, message):
        with pytest.raises(ValueError, match=message):
            convert()


class TestRangeWarning:
    MARS = Ellipsoid(r_e=3396190.0, r_p=3376200.0)

    def test_no_warning_near_another_ellipsoid(self):
        ref = geodetic_deg(18.4, 77.5, -2500.0)
        points = np.array([[10.0, -20.0, -25.0], [0.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = enu_to_ecef(points, np.tile(ref, (2, 1)), self.MARS)
            g = ecef_to_geodetic(e, self.MARS)
        assert_allclose(g[:, 2], [-2525.0, -2500.0], atol=1e-3)

    def test_wgs84_point_200_km_up_warns(self):
        with pytest.warns(RuntimeWarning, match="100 km"):
            enu_to_ecef([0.0, 0.0, 200e3], geodetic_deg(42.87, 17.7, 0.0))
