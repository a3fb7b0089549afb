"""recover_batch against references that share none of its code: the
simulator's {D} truth, the row-level validity checks spelled out, and
the same rows recovered one at a time; the camera model's forward and
inverse rays against each other; and the simulator's one rotation per
flight against the camera model run on per-row stacks."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from depthray.camera import CameraIntrinsics, DistortionCoeffs, PixelCoord
from depthray.errors import InfeasibleScene
from depthray.geodesy import WGS84, Ellipsoid, GeodeticCoord, geodetic_to_ecef
from depthray.geometry import EulerAngles, as_angles
from depthray.io import RunConfig
from depthray.recovery import (
    OBSERVATION_COLUMNS,
    REASONS,
    RECOVERED,
    TRAJECTORY_COLUMNS,
    RigConfig,
    camera_rotation,
    camera_to_body,
    cast,
    plane_depth,
    project,
    recover_batch,
)
from depthray.synth import NoiseSpec, Scenario, generate_logs, line_path

from conftest import sample_invertible_distortion

INTRINSICS = CameraIntrinsics(1000.0, 1000.0, 960.0, 540.0, 1920, 1080)

finite = dict(allow_nan=False, allow_infinity=False)


def ecef_to_enu(x, y, z, ref: GeodeticCoord, ell):
    """ENU offsets of ECEF points from `ref`, from the textbook rotation."""
    o = geodetic_to_ecef(ref, ell)
    dx, dy, dz = x - o[0], y - o[1], z - o[2]
    sl, cl = math.sin(ref.lat), math.cos(ref.lat)
    so, co = math.sin(ref.lon), math.cos(ref.lon)
    return np.column_stack([
        -so * dx + co * dy,
        -sl * co * dx - sl * so * dy + cl * dz,
        cl * co * dx + cl * so * dy + sl * dz,
    ])


@st.composite
def ellipsoids(draw):
    if not draw(st.booleans()):
        return WGS84
    r_e = draw(st.floats(1e6, 8e6))
    return Ellipsoid(r_e=r_e, r_p=r_e * (1.0 - draw(st.floats(0.0, 0.01))))


@st.composite
def rigs(draw):
    offset = draw(st.lists(st.floats(-0.5, 0.5, **finite), min_size=3, max_size=3))
    return RigConfig(
        cam_offset=np.array(offset),
        gimbal_pitch_sign=draw(st.sampled_from([1, -1])),
        gimbal_frame=draw(st.sampled_from(["world", "body"])),
    )


angle = st.floats(-0.15, 0.15, **finite)


@settings(max_examples=60, deadline=None)
@given(
    rig=rigs(),
    ell=ellipsoids(),
    lens_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    gimbal=st.tuples(st.floats(-math.pi, math.pi, **finite), angle, angle),
    body=st.tuples(st.floats(-math.pi, math.pi, **finite), angle, angle),
    altitude=st.floats(15.0, 40.0, **finite),
    depths=st.tuples(st.floats(0.0, 3.0, **finite), st.floats(0.0, 3.0, **finite)),
    end=st.tuples(st.floats(-3.0, 3.0, **finite), st.floats(-3.0, 3.0, **finite)),
    ref=st.tuples(st.floats(-89.0, 89.0, **finite), st.floats(-180.0, 180.0, **finite),
                  st.floats(-50.0, 3000.0, **finite)),
)
def test_noiseless_logs_recover_the_body_frame_truth(
    rig, ell, lens_seed, gimbal, body, altitude, depths, end, ref,
):
    if lens_seed is None:
        dist = DistortionCoeffs.zero()
    else:
        dist = sample_invertible_distortion(
            np.random.default_rng(lens_seed), k_max=0.3, p_max=0.01, r_max=0.85
        )
    # nadir as the vendor reports it: -90 deg, or +90 deg with pitch sign -1
    yaw, tilt, roll = gimbal
    gimbal = EulerAngles(yaw, rig.gimbal_pitch_sign * (-math.pi / 2 + tilt), roll)
    ref_geo = GeodeticCoord.from_degrees(*ref)
    scenario = Scenario(
        path_xy=line_path(25, [0.0, 0.0], end), duration=10.0, altitude=altitude,
        depth_min=depths[0], depth_max=depths[1], ref_geo=ref_geo,
        intrinsics=INTRINSICS, distortion=dist, rig=rig, noise=NoiseSpec(),
        gimbal=gimbal, body=EulerAngles(*body),
    )
    try:
        obs, truth = generate_logs(scenario)
    except InfeasibleScene:
        assume(False)
    trajectory, codes = recover_batch(obs, RunConfig(INTRINSICS, dist, rig, ell))
    assert [REASONS[c] for c in codes] == [""] * len(obs)
    expected = np.column_stack([truth["x"], truth["y"], truth["z"]])
    enu = np.column_stack([trajectory["enu_x"], trajectory["enu_y"], trajectory["enu_z"]])
    np.testing.assert_allclose(enu, expected, rtol=0.0, atol=1e-8)
    # the geodetic fix lands on the same point of the chosen ellipsoid
    fix = geodetic_to_ecef(GeodeticCoord.from_degrees(
        trajectory["lat_deg"], trajectory["lon_deg"], trajectory["alt_m"]
    ), ell)
    np.testing.assert_allclose(ecef_to_enu(*fix.T, ref_geo, ell), expected,
                               rtol=0.0, atol=1e-6)


def same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=float).view(np.uint64),
                          np.asarray(b, dtype=float).view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(
    rig=rigs(),
    lens_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    gimbal=st.tuples(st.floats(-math.pi, math.pi, **finite), angle, angle),
    body=st.tuples(st.floats(-math.pi, math.pi, **finite), angle, angle),
    n=st.integers(1, 300),
    altitude=st.floats(15.0, 40.0, **finite),
    depths=st.tuples(st.floats(0.0, 3.0, **finite), st.floats(0.0, 3.0, **finite)),
    end=st.tuples(st.floats(-3.0, 3.0, **finite), st.floats(-3.0, 3.0, **finite)),
)
def test_noiseless_logs_match_the_stacked_reference(
    rig, lens_seed, gimbal, body, n, altitude, depths, end,
):
    """generate_logs builds one rotation per scenario; the reference tiles
    the angles to (n, 3) and runs the camera model on the stacks, row by
    row. Both must give the same bits."""
    if lens_seed is None:
        dist = DistortionCoeffs.zero()
    else:
        dist = sample_invertible_distortion(
            np.random.default_rng(lens_seed), k_max=0.3, p_max=0.01, r_max=0.85
        )
    yaw, tilt, roll = gimbal
    gimbal = EulerAngles(yaw, rig.gimbal_pitch_sign * (-math.pi / 2 + tilt), roll)
    body = EulerAngles(*body)
    path_xy = line_path(n, [0.0, 0.0], end)
    scenario = Scenario(
        path_xy=path_xy, duration=10.0, altitude=altitude, depth_min=depths[0],
        depth_max=depths[1], ref_geo=GeodeticCoord.from_degrees(42.87, 17.7, 25.0),
        intrinsics=INTRINSICS, distortion=dist, rig=rig, gimbal=gimbal, body=body,
    )
    try:
        obs, truth = generate_logs(scenario)
    except InfeasibleScene:
        assume(False)

    gimbal_n, body_n = np.tile(as_angles(gimbal), (n, 1)), np.tile(as_angles(body), (n, 1))
    z = -plane_depth(altitude, np.linspace(depths[0], depths[1], n), rig)
    p_g = np.column_stack([path_xy[:, 0], path_xy[:, 1], z])
    r_cw = camera_rotation(gimbal_n, body_n, rig)
    assert r_cw.shape == (n, 3, 3)
    u, v, _ = project(p_g, r_cw, INTRINSICS, dist)
    p_d = camera_to_body(p_g, body_n, rig)
    assert same_bits(obs["u"], u) and same_bits(obs["v"], v)
    for axis, name in enumerate("xyz"):
        assert same_bits(truth[name], p_d[:, axis])


# the distortion sampled below is invertible out to this normalized radius
LENS_R_MAX = 0.85


@given(
    rig=rigs(),
    lens_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    gimbal=st.tuples(st.floats(-math.pi, math.pi, **finite), angle, angle),
    body=st.tuples(st.floats(-math.pi, math.pi, **finite), angle, angle),
    altitude=st.floats(15.0, 40.0, **finite),
    depth=st.floats(0.0, 3.0, **finite),
    xy=st.tuples(st.floats(-0.5, 0.5, **finite), st.floats(-0.5, 0.5, **finite)),
)
def test_cast_and_project_invert_each_other(rig, lens_seed, gimbal, body, altitude, depth, xy):
    if lens_seed is None:
        dist = DistortionCoeffs.zero()
    else:
        dist = sample_invertible_distortion(
            np.random.default_rng(lens_seed), k_max=0.3, p_max=0.01, r_max=LENS_R_MAX
        )
    yaw, tilt, roll = gimbal
    gimbal = EulerAngles(yaw, rig.gimbal_pitch_sign * (-math.pi / 2 + tilt), roll)
    r_cw = camera_rotation(gimbal, EulerAngles(*body), rig)[None]
    h = plane_depth(altitude, depth, rig)
    p = np.array([[xy[0] * h, xy[1] * h, -h]])  # a point on the depth plane, in {G}
    u, v, z = project(p, r_cw, INTRINSICS, dist)
    ray = r_cw[0] @ p[0]
    assume(z[0] > 0 and INTRINSICS.contains(PixelCoord(u, v))[0])
    assume(math.hypot(ray[0] / ray[2], ray[1] / ray[2]) <= LENS_R_MAX)

    p_c, codes = cast(u, v, np.array([h]), r_cw, INTRINSICS, dist)
    assert codes[0] == RECOVERED
    back = p_c @ r_cw[0]  # R^T p_c, row-wise
    assert np.max(np.abs(back - p)) <= 1e-9 * h
    u2, v2, _ = project(back, r_cw, INTRINSICS, dist)
    assert max(abs(u2[0] - u[0]), abs(v2[0] - v[0])) <= 1e-6


rows = st.fixed_dictionaries({
    "t": st.floats(0.0, 1e4, **finite),
    "u": st.floats(-200.0, 2120.0, **finite),
    "v": st.floats(-200.0, 1280.0, **finite),
    "a_uav": st.one_of(st.floats(-2.0, 40.0, **finite), st.floats(9.9e4, 1.01e5, **finite)),
    "d_uuv": st.one_of(st.floats(-0.5, 3.0, **finite), st.floats(9.9e4, 1.01e5, **finite)),
    "gimbal_yaw_deg": st.floats(-360.0, 360.0, **finite),
    "gimbal_pitch_deg": st.floats(-180.0, 180.0, **finite),
    "gimbal_roll_deg": st.floats(-40.0, 40.0, **finite),
    "body_yaw_deg": st.floats(-180.0, 180.0, **finite),
    "body_pitch_deg": st.floats(-20.0, 20.0, **finite),
    "body_roll_deg": st.floats(-20.0, 20.0, **finite),
    "ref_lat_deg": st.floats(-91.0, 91.0, **finite),
    "ref_lon_deg": st.floats(-190.0, 190.0, **finite),
    "ref_alt_m": st.one_of(st.floats(-100.0, 3000.0, **finite),
                           st.floats(-1.01e5, -9.9e4, **finite), st.floats(9.9e4, 1.01e5, **finite)),
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
    rig = draw(rigs())
    lens = draw(st.sampled_from(["invertible", "none", "folded"]))
    if lens == "invertible":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        dist = sample_invertible_distortion(rng, k_max=0.3, p_max=0.01, r_max=0.85)
    elif lens == "none":
        dist = DistortionCoeffs.zero()
    else:  # pixels beyond ~0.54 focal lengths off axis have no preimage
        dist = DistortionCoeffs(k1=-0.5)
    return RunConfig(
        intrinsics=INTRINSICS, distortion=dist, rig=rig, ellipsoid=draw(ellipsoids()),
        altitude_datum_offset=draw(st.floats(-1.0, 1.0, **finite)),
    )


def as_text(trajectory):
    """Each trajectory column as the strings the CSV writer puts in a file."""
    return {
        c: list(map(repr, trajectory[c].tolist())) if c != "flags" else trajectory[c].tolist()
        for c in TRAJECTORY_COLUMNS
    }


# rows just inside the 1e5-m bounds are recovered, and their fixes can lie
# more than 100 km off the ellipsoid, where geodesy warns
@pytest.mark.filterwarnings("ignore:ECEF point more than 100 km:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(configs(), st.lists(st.one_of(rows, nadir_rows, edge_rows), min_size=1, max_size=12))
def test_rows_one_at_a_time_match_the_batch(config, drawn):
    for row in drawn:
        row["gimbal_pitch_deg"] *= config.rig.gimbal_pitch_sign  # nadir as +90 deg
    columns = {name: np.array([row[name] for row in drawn]) for name in OBSERVATION_COLUMNS}
    trajectory, codes = recover_batch(columns, config)

    # the readings no recovery can use: no altitude above the datum, a
    # negative depth, a latitude beyond the poles, or an altitude, depth or
    # reference height more than 100 km out
    for row, code in zip(drawn, codes):
        if (
            row["a_uav"] + config.altitude_datum_offset <= 0
            or row["d_uuv"] < 0
            or abs(math.radians(row["ref_lat_deg"])) > math.pi / 2 + 1e-12
            or row["a_uav"] + config.altitude_datum_offset > 1e5
            or row["d_uuv"] > 1e5
            or abs(row["ref_alt_m"]) > 1e5
        ):
            assert REASONS[code] == "degenerate"

    alone = [recover_batch({k: v[i:i + 1] for k, v in columns.items()}, config)
             for i in range(len(drawn))]
    assert [int(c[0]) for _, c in alone] == codes.tolist()
    one_by_one = {c: sum((as_text(t)[c] for t, _ in alone), []) for c in TRAJECTORY_COLUMNS}
    assert one_by_one == as_text(trajectory)
