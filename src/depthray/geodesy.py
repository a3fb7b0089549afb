"""Geodetic, ECEF and local-ENU coordinate conversions.

Latitude and longitude are radians internally; file I/O converts from
decimal degrees at the boundary. Geodetic points are (..., 3) float
arrays of latitude (rad), longitude (rad) and height above the ellipsoid
(m); ECEF and ENU points are (..., 3) float arrays of meters. All
operations vectorize elementwise; enu_to_ecef checks its anchor once and
applies the ENU axes to the coordinate columns without a matrix stack.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import wrap_angle


@dataclass(frozen=True)
class Ellipsoid:
    """Reference ellipsoid given by equatorial and polar radii, meters."""

    r_e: float
    r_p: float

    def __post_init__(self):
        if not (self.r_e >= self.r_p > 0):
            raise ValueError(f"require r_e >= r_p > 0, got {self.r_e}, {self.r_p}")

    @property
    def e2(self) -> float:
        """First eccentricity squared."""
        return 1.0 - (self.r_p / self.r_e) ** 2

    @property
    def ep2(self) -> float:
        """Second eccentricity squared."""
        return (self.r_e / self.r_p) ** 2 - 1.0


WGS84 = Ellipsoid(r_e=6378137.0, r_p=6356752.314245)

ELLIPSOIDS = {"wgs84": WGS84}


def _checked_geodetic(geo) -> np.ndarray:
    """Geodetic points (..., 3) as a float array, longitude wrapped into
    (-pi, pi] by wrap_angle, which returns one in range bit for bit; a
    non-finite coordinate or a latitude beyond the poles raises ValueError."""
    lat, lon, h = np.moveaxis(np.asarray(geo, dtype=float), -1, 0)
    if not np.all(np.isfinite(lat)) or np.any(np.abs(lat) > np.pi / 2 + 1e-12):
        raise ValueError("latitude must be finite and within [-pi/2, pi/2]")
    if not np.all(np.isfinite(lon)):
        raise ValueError("longitude must be finite")
    if not np.all(np.isfinite(h)):
        raise ValueError("height must be finite")
    return np.stack([lat, wrap_angle(lon), h], axis=-1)


def _checked_ecef(xyz, ell: Ellipsoid) -> np.ndarray:
    """ECEF points (..., 3) as a float array; a non-finite one raises
    ValueError, one more than 100 km from `ell` draws a RuntimeWarning."""
    xyz = np.asarray(xyz, dtype=float)
    if not np.all(np.isfinite(xyz)):
        raise ValueError("ECEF coordinates must be finite")
    x, y, z = np.moveaxis(xyz, -1, 0)
    r = np.sqrt(x * x + y * y + z * z)
    if np.any(r < ell.r_p - 1e5) or np.any(r > ell.r_e + 1e5):
        warnings.warn(
            "ECEF point more than 100 km from the reference surface",
            RuntimeWarning,
            stacklevel=3,
        )
    return xyz


def _prime_vertical_radius(clat, slat, ell: Ellipsoid):
    """Distance from the surface to the rotation axis along the normal, from
    cos and sin of the latitude: N = r_e^2 / sqrt(r_e^2 cos^2 + r_p^2 sin^2)."""
    return ell.r_e**2 / np.sqrt((ell.r_e * clat) ** 2 + (ell.r_p * slat) ** 2)


def _ecef(geo, ell: Ellipsoid):
    """ECEF columns of checked geodetic points, and cos/sin of lat and lon."""
    lat, lon, h = np.moveaxis(_checked_geodetic(geo), -1, 0)
    clat, slat, clon, slon = np.cos(lat), np.sin(lat), np.cos(lon), np.sin(lon)
    n = _prime_vertical_radius(clat, slat, ell)
    xyz = (n + h) * clat * clon, (n + h) * clat * slon, ((ell.r_p / ell.r_e) ** 2 * n + h) * slat
    return xyz, (clat, slat, clon, slon)


def geodetic_to_ecef(geo, ell: Ellipsoid = WGS84) -> np.ndarray:
    """Closed-form geodetic to ECEF conversion, (..., 3) to (..., 3) points."""
    return _checked_ecef(np.stack(_ecef(geo, ell)[0], axis=-1), ell)


def enu_to_ecef(p, ref, ell: Ellipsoid = WGS84) -> np.ndarray:
    """Transform local ENU points (meters) anchored at the geodetic point
    `ref` to ECEF (..., 3).

    `p` is a 3-vector, or an (n, 3) array with `ref` holding n anchors.
    The sines and cosines of `ref` place the origin and the ENU axes both.
    """
    e, n, u = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
    (x, y, z), (clat, slat, clon, slon) = _ecef(ref, ell)
    ecef = [
        -slon * e + -slat * clon * n + clat * clon * u + x,
        clon * e + -slat * slon * n + clat * slon * u + y,
        clat * n + slat * u + z,
    ]
    return _checked_ecef(np.stack(ecef, axis=-1), ell)


def ecef_to_geodetic(xyz, ell: Ellipsoid = WGS84) -> np.ndarray:
    """Convert ECEF points (..., 3) to geodetic points (..., 3) in closed form
    (Heikkinen 1982, Zhu 1994). The solution holds on and near the rotation
    axis too; it breaks down only within tens of km of the earth's centre.
    """
    x, y, z = np.moveaxis(_checked_ecef(xyz, ell), -1, 0)
    a, b = ell.r_e, ell.r_p
    e2, ep2 = ell.e2, ell.ep2
    p = np.hypot(x, y)
    f = 54.0 * b * b * z * z
    g = p * p + (1.0 - e2) * z * z - e2 * (a * a - b * b)
    c = e2 * e2 * f * p * p / (g * g * g)
    s = np.cbrt(1.0 + c + np.sqrt(c * c + 2.0 * c))
    k = s + 1.0 + 1.0 / s
    pp = f / (3.0 * k * k * g * g)
    q = np.sqrt(1.0 + 2.0 * e2 * e2 * pp)
    r0 = -pp * e2 * p / (1.0 + q) + np.sqrt(
        np.maximum(
            0.5 * a * a * (1.0 + 1.0 / q)
            - pp * (1.0 - e2) * z * z / (q * (1.0 + q))
            - 0.5 * pp * p * p,
            0.0,
        )
    )
    t = p - e2 * r0
    u = np.sqrt(t * t + z * z)
    v = np.sqrt(t * t + (1.0 - e2) * z * z)
    z0 = b * b * z / (a * v)
    h = u * (1.0 - b * b / (a * v))
    return _checked_geodetic(np.stack([np.arctan2(z + ep2 * z0, p), np.arctan2(y, x), h], axis=-1))
