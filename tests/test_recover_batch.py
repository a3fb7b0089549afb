"""recover_batch against the one-observation functions, row by row."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from depthray.camera import CameraIntrinsics, DistortionCoeffs, PixelCoord
from depthray.errors import DepthrayError
from depthray.geodesy import WGS84, Ellipsoid, GeodeticCoord, ecef_to_geodetic, enu_to_ecef
from depthray.geometry import EulerAngles
from depthray.io import RunConfig
from depthray.recovery import (
    OBSERVATION_COLUMNS,
    REASONS,
    Observation,
    RigConfig,
    camera_to_uav_enu,
    recover_batch,
    recover_camera_frame,
)

from conftest import sample_invertible_distortion

INTRINSICS = CameraIntrinsics(1000.0, 1000.0, 960.0, 540.0, 1920, 1080)

# what a caller of the one-observation functions maps each error to
REASON_OF_ERROR = {
    "ParallelRay": "parallel_ray",
    "IllConditionedRay": "ill_conditioned",
    "BehindCamera": "behind_camera",
    "NonConvergence": "undistort_nonconvergence",
    "DegenerateGeometry": "degenerate",
}


def scalar_recover(row, config):
    """Reference: one observation at a time through the scalar API.

    Returns (reason, trajectory values or None).
    """
    try:
        obs = Observation(
            t=row["t"],
            px=PixelCoord(row["u"], row["v"]),
            a_uav=row["a_uav"] + config.altitude_datum_offset,
            d_uuv=row["d_uuv"],
            gimbal=EulerAngles.from_degrees(
                row["gimbal_yaw_deg"], row["gimbal_pitch_deg"], row["gimbal_roll_deg"]
            ),
            body=EulerAngles.from_degrees(
                row["body_yaw_deg"], row["body_pitch_deg"], row["body_roll_deg"]
            ),
            ref_geo=GeodeticCoord.from_degrees(
                row["ref_lat_deg"], row["ref_lon_deg"], row["ref_alt_m"]
            ),
        )
    except ValueError:
        return "degenerate", None
    try:
        p_c, _ = recover_camera_frame(obs, config.intrinsics, config.distortion, config.rig)
    except DepthrayError as exc:
        return REASON_OF_ERROR[type(exc).__name__], None
    p_d = camera_to_uav_enu(p_c, obs, config.rig)
    geo = ecef_to_geodetic(enu_to_ecef(p_d, obs.ref_geo, config.ellipsoid), config.ellipsoid)
    return "", (*p_c, *p_d, math.degrees(geo.lat), math.degrees(geo.lon), geo.h)


finite = dict(allow_nan=False, allow_infinity=False)
rows = st.fixed_dictionaries({
    "t": st.floats(0.0, 1e4, **finite),
    "u": st.floats(-200.0, 2120.0, **finite),
    "v": st.floats(-200.0, 1280.0, **finite),
    "a_uav": st.floats(-2.0, 40.0, **finite),
    "d_uuv": st.floats(-0.5, 3.0, **finite),
    "gimbal_yaw_deg": st.floats(-360.0, 360.0, **finite),
    "gimbal_pitch_deg": st.floats(-180.0, 180.0, **finite),
    "gimbal_roll_deg": st.floats(-40.0, 40.0, **finite),
    "body_yaw_deg": st.floats(-180.0, 180.0, **finite),
    "body_pitch_deg": st.floats(-20.0, 20.0, **finite),
    "body_roll_deg": st.floats(-20.0, 20.0, **finite),
    "ref_lat_deg": st.floats(-91.0, 91.0, **finite),
    "ref_lon_deg": st.floats(-190.0, 190.0, **finite),
    "ref_alt_m": st.floats(-100.0, 3000.0, **finite),
})
# nadir-ish views, so that most rows recover
nadir_rows = rows.map(lambda r: {**r, "gimbal_pitch_deg": -90.0 + r["gimbal_pitch_deg"] / 6.0})
# level body, principal-point pixel: horizontal, grazing and upward views
edge_rows = st.builds(
    lambda r, pitch: {
        **r, "u": 960.0, "v": 540.0, "gimbal_pitch_deg": pitch, "gimbal_roll_deg": 0.0,
        "body_yaw_deg": 0.0, "body_pitch_deg": 0.0, "body_roll_deg": 0.0,
    },
    rows,
    st.sampled_from([0.0, 0.01, -0.01, -0.5, 90.0]),
)


@st.composite
def configs(draw):
    offset = draw(st.lists(st.floats(-0.5, 0.5, **finite), min_size=3, max_size=3))
    sign = draw(st.sampled_from([1, -1]))
    rig = RigConfig(
        cam_offset=np.array(offset),
        gimbal_pitch_sign=sign,
        gimbal_frame=draw(st.sampled_from(["world", "body"])),
    )
    lens = draw(st.sampled_from(["invertible", "none", "folded"]))
    if lens == "invertible":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        dist = sample_invertible_distortion(rng, k_max=0.3, p_max=0.01, r_max=0.85)
    elif lens == "none":
        dist = DistortionCoeffs.zero()
    else:  # pixels beyond ~0.54 focal lengths off axis have no preimage
        dist = DistortionCoeffs(k1=-0.5)
    if draw(st.booleans()):
        r_e = draw(st.floats(1e6, 8e6))
        ell = Ellipsoid(r_e=r_e, r_p=r_e * (1.0 - draw(st.floats(0.0, 0.01))))
    else:
        ell = WGS84
    return RunConfig(
        intrinsics=INTRINSICS, distortion=dist, rig=rig, ellipsoid=ell,
        altitude_datum_offset=draw(st.floats(-1.0, 1.0, **finite)),
    ), sign


@settings(max_examples=60, deadline=None)
@given(configs(), st.lists(st.one_of(rows, nadir_rows, edge_rows), min_size=1, max_size=12))
def test_batch_matches_one_row_functions(config_and_sign, drawn):
    config, sign = config_and_sign
    for row in drawn:
        row["gimbal_pitch_deg"] *= sign  # vendors reporting nadir as +90
    columns = {name: np.array([row[name] for row in drawn]) for name in OBSERVATION_COLUMNS}
    trajectory, codes = recover_batch(columns, config)
    expected = [scalar_recover(row, config) for row in drawn]
    assert [REASONS[c] for c in codes] == [reason for reason, _ in expected]
    values = [v for _, v in expected if v is not None]
    assert len(trajectory) == len(values)
    for row, want in zip(trajectory, values):
        got = [row[c] for c in ("cam_x", "cam_y", "cam_z", "enu_x", "enu_y", "enu_z")]
        np.testing.assert_allclose(got, want[:6], rtol=0.0, atol=1e-9)
        np.testing.assert_allclose([row["lat_deg"], row["lon_deg"]], want[6:8], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(row["alt_m"], want[8], rtol=0.0, atol=1e-9)
