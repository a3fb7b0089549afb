"""Geodetic, ECEF and local-ENU coordinate conversions.

Latitude and longitude are radians internally; file I/O converts from
decimal degrees at the boundary. GeodeticCoord fields hold scalars or
equal-shaped arrays; ECEF and ENU points are (..., 3) float arrays. All
operations vectorize elementwise.
"""

import warnings
from dataclasses import dataclass

import numpy as np


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


def _wrap_lon(lon):
    wrapped = np.remainder(np.asarray(lon, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    return np.where(wrapped == -np.pi, np.pi, wrapped)


def _scalar_or_array(x):
    x = np.asarray(x, dtype=float)
    return float(x) if x.ndim == 0 else x


@dataclass(frozen=True)
class GeodeticCoord:
    """Latitude (rad), longitude (rad), height above the ellipsoid (m)."""

    lat: float
    lon: float
    h: float

    def __post_init__(self):
        lat = np.asarray(self.lat, dtype=float)
        if not np.all(np.isfinite(lat)) or np.any(np.abs(lat) > np.pi / 2 + 1e-12):
            raise ValueError("latitude must be finite and within [-pi/2, pi/2]")
        if not np.all(np.isfinite(np.asarray(self.h, dtype=float))):
            raise ValueError("height must be finite")
        object.__setattr__(self, "lat", _scalar_or_array(lat))
        object.__setattr__(self, "lon", _scalar_or_array(_wrap_lon(self.lon)))
        object.__setattr__(self, "h", _scalar_or_array(self.h))

    @classmethod
    def from_degrees(cls, lat_deg, lon_deg, h) -> "GeodeticCoord":
        return cls(np.radians(lat_deg), np.radians(lon_deg), h)


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


def prime_vertical_radius(lat, ell: Ellipsoid = WGS84):
    """Distance from the surface to the rotation axis along the normal:

        N = r_e^2 / sqrt(r_e^2 cos^2(lat) + r_p^2 sin^2(lat))
    """
    lat = np.asarray(lat, dtype=float)
    c, s = np.cos(lat), np.sin(lat)
    return _scalar_or_array(ell.r_e**2 / np.sqrt((ell.r_e * c) ** 2 + (ell.r_p * s) ** 2))


def geodetic_to_ecef(g: GeodeticCoord, ell: Ellipsoid = WGS84) -> np.ndarray:
    """Closed-form geodetic to ECEF conversion, to (..., 3) points."""
    n = prime_vertical_radius(g.lat, ell)
    clat, slat = np.cos(g.lat), np.sin(g.lat)
    x = (n + g.h) * clat * np.cos(g.lon)
    y = (n + g.h) * clat * np.sin(g.lon)
    z = ((ell.r_p / ell.r_e) ** 2 * n + g.h) * slat
    return _checked_ecef(np.stack([x, y, z], axis=-1), ell)


def enu_to_ecef_rotation(ref: GeodeticCoord) -> np.ndarray:
    """Rotation block taking local ENU offsets at `ref` into ECEF axes;
    a stack of shape (n, 3, 3) when `ref` holds arrays."""
    lat, lon = np.asarray(ref.lat), np.asarray(ref.lon)
    clat, slat = np.cos(lat), np.sin(lat)
    clon, slon = np.cos(lon), np.sin(lon)
    entries = [
        -slon, -slat * clon, clat * clon,
        clon, -slat * slon, clat * slon,
        np.zeros_like(clat), clat, slat,
    ]
    return np.stack(entries, axis=-1).reshape(lat.shape + (3, 3))


def enu_to_ecef(p, ref: GeodeticCoord, ell: Ellipsoid = WGS84) -> np.ndarray:
    """Transform local ENU points (meters) anchored at `ref` to ECEF (..., 3).

    `p` is a 3-vector, or an (n, 3) array with `ref` holding n anchors.
    """
    p = np.asarray(p, dtype=float)
    origin = geodetic_to_ecef(ref, ell)
    offset = (enu_to_ecef_rotation(ref) @ p[..., None])[..., 0]
    return _checked_ecef(offset + origin, ell)


def ecef_to_geodetic(xyz, ell: Ellipsoid = WGS84) -> GeodeticCoord:
    """Convert ECEF points (..., 3) to geodetic coordinates in closed form
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
    return GeodeticCoord(np.arctan2(z + ep2 * z0, p), np.arctan2(y, x), h)
