"""recover_batch against references that share none of its code: the
simulator's {D} truth, the row-level validity checks spelled out, the
same rows recovered one at a time, and a long-hand copy of the stacked
matrix formulation it replaced; the camera model's forward and inverse
rays against each other; and the simulator's one rotation per flight
against the camera model run on per-row stacks."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from depthray.camera import CameraIntrinsics, DistortionCoeffs, pixel_to_normalized, undistort
from depthray.errors import InfeasibleScene
from depthray.geodesy import WGS84, Ellipsoid, ecef_to_geodetic, geodetic_to_ecef
from depthray.geometry import wrap_angle
from depthray.io import RunConfig
from depthray.recovery import (
    BEHIND_CAMERA,
    CONDITIONING_MIN,
    DEGENERATE,
    ILL_CONDITIONED,
    OBSERVATION_COLUMNS,
    PARALLEL_RAY,
    REASONS,
    RECOVERED,
    TRAJECTORY_COLUMNS,
    UNDISTORT_NONCONVERGENCE,
    RigConfig,
    camera_rotation,
    camera_to_body,
    cast,
    plane_depth,
    project,
    recover_batch,
)
from depthray.synth import NoiseSpec, Scenario, generate_logs, line_path

from conftest import geodetic_deg, sample_invertible_distortion

INTRINSICS = CameraIntrinsics(1000.0, 1000.0, 960.0, 540.0, 1920, 1080)

finite = dict(allow_nan=False, allow_infinity=False)


def ecef_to_enu(x, y, z, ref, ell):
    """ENU offsets of ECEF points from the geodetic point `ref`, from the
    textbook rotation."""
    o = geodetic_to_ecef(ref, ell)
    dx, dy, dz = x - o[0], y - o[1], z - o[2]
    sl, cl = math.sin(ref[0]), math.cos(ref[0])
    so, co = math.sin(ref[1]), math.cos(ref[1])
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
        dist = DistortionCoeffs()
    else:
        dist = sample_invertible_distortion(
            np.random.default_rng(lens_seed), k_max=0.3, p_max=0.01, r_max=0.85
        )
    # nadir as the vendor reports it: -90 deg, or +90 deg with pitch sign -1
    yaw, tilt, roll = gimbal
    gimbal = np.array([yaw, rig.gimbal_pitch_sign * (-math.pi / 2 + tilt), roll])
    ref_geo = geodetic_deg(*ref)
    scenario = Scenario(
        path_xy=line_path(25, [0.0, 0.0], end), duration=10.0, altitude=altitude,
        depth_min=depths[0], depth_max=depths[1], ref_geo=ref_geo,
        intrinsics=INTRINSICS, distortion=dist, rig=rig, noise=NoiseSpec(),
        gimbal=gimbal, body=body,
    )
    try:
        obs, truth = generate_logs(scenario)
    except InfeasibleScene:
        assume(False)
    trajectory, codes = recover_batch(obs, RunConfig(INTRINSICS, dist, rig, ell))
    assert [REASONS[c] for c in codes] == [""] * len(obs["t"])
    expected = np.column_stack([truth["x"], truth["y"], truth["z"]])
    enu = np.column_stack([trajectory["enu_x"], trajectory["enu_y"], trajectory["enu_z"]])
    np.testing.assert_allclose(enu, expected, rtol=0.0, atol=1e-8)
    # the geodetic fix lands on the same point of the chosen ellipsoid
    fix = geodetic_to_ecef(geodetic_deg(
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
        dist = DistortionCoeffs()
    else:
        dist = sample_invertible_distortion(
            np.random.default_rng(lens_seed), k_max=0.3, p_max=0.01, r_max=0.85
        )
    yaw, tilt, roll = gimbal
    gimbal = np.array([yaw, rig.gimbal_pitch_sign * (-math.pi / 2 + tilt), roll])
    path_xy = line_path(n, [0.0, 0.0], end)
    scenario = Scenario(
        path_xy=path_xy, duration=10.0, altitude=altitude, depth_min=depths[0],
        depth_max=depths[1], ref_geo=geodetic_deg(42.87, 17.7, 25.0),
        intrinsics=INTRINSICS, distortion=dist, rig=rig, gimbal=gimbal, body=body,
    )
    try:
        obs, truth = generate_logs(scenario)
    except InfeasibleScene:
        assume(False)

    gimbal_n, body_n = np.tile(scenario.gimbal, (n, 1)), np.tile(scenario.body, (n, 1))
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
        dist = DistortionCoeffs()
    else:
        dist = sample_invertible_distortion(
            np.random.default_rng(lens_seed), k_max=0.3, p_max=0.01, r_max=LENS_R_MAX
        )
    yaw, tilt, roll = gimbal
    gimbal = np.array([yaw, rig.gimbal_pitch_sign * (-math.pi / 2 + tilt), roll])
    r_cw = camera_rotation(gimbal, body, rig)[None]
    h = plane_depth(altitude, depth, rig)
    p = np.array([[xy[0] * h, xy[1] * h, -h]])  # a point on the depth plane, in {G}
    u, v, z = project(p, r_cw, INTRINSICS, dist)
    ray = r_cw[0] @ p[0]
    assume(z[0] > 0 and INTRINSICS.contains(u, v)[0])
    assume(math.hypot(ray[0] / ray[2], ray[1] / ray[2]) <= LENS_R_MAX)

    p_c, codes = cast(u, v, np.array([h]), r_cw, INTRINSICS, dist)
    assert codes[0] == RECOVERED
    back = p_c @ r_cw[0]  # R^T p_c, row-wise
    assert np.max(np.abs(back - p)) <= 1e-9 * h
    u2, v2, _ = project(back, r_cw, INTRINSICS, dist)
    assert max(abs(u2[0] - u[0]), abs(v2[0] - v[0])) <= 1e-6


ROW_FIELDS = {
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
}
rows = st.fixed_dictionaries(ROW_FIELDS)
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
        dist = DistortionCoeffs()
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


def elementary(angle, axis):
    """Stacked passive rotations about coordinate axis 0, 1 or 2."""
    c, s = np.cos(angle), np.sin(angle)
    i, j = ((1, 2), (2, 0), (0, 1))[axis]
    r = np.zeros(angle.shape + (3, 3))
    r[..., axis, axis] = 1.0
    r[..., i, i] = r[..., j, j] = c
    r[..., i, j] = s
    r[..., j, i] = -s
    return r


def stacked_yaw_pitch_roll(angles):
    return elementary(angles[:, 0], 2) @ elementary(angles[:, 1], 1) @ elementary(angles[:, 2], 0)


CAM_FROM_FORWARD = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


def stacked_reference(columns, config):
    """recover_batch as (n, 3, 3) stacks: elementary-matrix products, the
    axis permutation as a matrix product, batched matmuls and the stacked
    ENU-to-ECEF rotation. Returns the trajectory columns and the codes."""
    rig, intr = config.rig, config.intrinsics
    a_uav = columns["a_uav"] + config.altitude_datum_offset
    lat = np.radians(columns["ref_lat_deg"])
    valid = np.all([np.isfinite(columns[k]) for k in OBSERVATION_COLUMNS[1:]], axis=0)
    valid &= np.isfinite(a_uav) & (a_uav > 0) & (columns["d_uuv"] >= 0)
    valid &= np.abs(lat) <= np.pi / 2 + 1e-12
    valid &= np.max(np.abs([a_uav, columns["d_uuv"], columns["ref_alt_m"]]), axis=0) <= 1e5
    rows = np.flatnonzero(valid)

    def angles(prefix):
        degrees = [columns[f"{prefix}_{name}_deg"][rows] for name in ("yaw", "pitch", "roll")]
        return wrap_angle(np.radians(np.column_stack(degrees)))

    gimbal, body = angles("gimbal"), angles("body")
    gimbal[:, 1] = wrap_angle(rig.gimbal_pitch_sign * gimbal[:, 1])
    r_world_fwd = stacked_yaw_pitch_roll(gimbal)
    if rig.gimbal_frame == "body":
        r_world_fwd = stacked_yaw_pitch_roll(body) @ r_world_fwd
    r_cw = CAM_FROM_FORWARD @ np.swapaxes(r_world_fwd, -1, -2)

    u, v = columns["u"][rows], columns["v"][rows]
    depth = a_uav[rows] + rig.cam_offset[2] + columns["d_uuv"][rows]
    (x, y), converged = undistort(*pixel_to_normalized(u, v, intr), config.distortion)
    ray = np.column_stack([x, y, np.ones_like(x)])
    ln = np.sum(ray * r_cw[:, :, 2], axis=-1)
    conditioning = np.abs(ln) / np.sqrt(np.sum(ray * ray, axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -depth / ln
    hit_codes = np.select(
        [~converged, ~(depth > 0), conditioning <= 1e-12, conditioning < CONDITIONING_MIN,
         s <= 0.0],
        [UNDISTORT_NONCONVERGENCE, DEGENERATE, PARALLEL_RAY, ILL_CONDITIONED, BEHIND_CAMERA],
        RECOVERED,
    )
    codes = np.full(len(valid), DEGENERATE, dtype=np.int8)
    codes[rows] = hit_codes
    ok = hit_codes == RECOVERED
    rows, p_c = rows[ok], ray[ok] * s[ok, None]
    p_g = (np.swapaxes(r_cw[ok], -1, -2) @ p_c[..., None])[..., 0]
    p_d = p_g + stacked_yaw_pitch_roll(body[ok]) @ rig.cam_offset

    ell = config.ellipsoid
    lat, lon, h = lat[rows], np.radians(columns["ref_lon_deg"][rows]), columns["ref_alt_m"][rows]
    clat, slat, clon, slon = np.cos(lat), np.sin(lat), np.cos(lon), np.sin(lon)
    n = ell.r_e**2 / np.sqrt((ell.r_e * clat) ** 2 + (ell.r_p * slat) ** 2)
    origin = np.column_stack([
        (n + h) * clat * clon, (n + h) * clat * slon, ((ell.r_p / ell.r_e) ** 2 * n + h) * slat,
    ])
    enu_to_ecef = np.stack([
        -slon, -slat * clon, clat * clon,
        clon, -slat * slon, clat * slon,
        np.zeros_like(clat), clat, slat,
    ], axis=-1).reshape(-1, 3, 3)
    geo = ecef_to_geodetic((enu_to_ecef @ p_d[..., None])[..., 0] + origin, ell)
    return {
        "cam": p_c, "enu": p_d,
        "lat_deg": np.degrees(geo[:, 0]), "lon_deg": np.degrees(geo[:, 1]), "alt_m": geo[:, 2],
    }, codes


# views within 20 degrees of nadir, from a body within 10 degrees of
# level, keep every fix within a few hundred meters of the camera
near_nadir_rows = st.fixed_dictionaries({
    **ROW_FIELDS,
    "u": st.floats(0.0, 1920.0, **finite),
    "v": st.floats(0.0, 1080.0, **finite),
    "gimbal_pitch_deg": st.floats(-110.0, -70.0, **finite),
    "gimbal_roll_deg": st.floats(-20.0, 20.0, **finite),
    "body_pitch_deg": st.floats(-10.0, 10.0, **finite),
    "body_roll_deg": st.floats(-10.0, 10.0, **finite),
    "a_uav": st.one_of(st.floats(-2.0, 40.0, **finite), st.just(math.nan)),
    "d_uuv": st.floats(-0.5, 3.0, **finite),
    "ref_alt_m": st.floats(-100.0, 3000.0, **finite),
})


@settings(max_examples=100, deadline=None)
@given(configs(), st.lists(near_nadir_rows, min_size=1, max_size=20))
def test_batch_matches_the_stacked_matrix_formulation(config, drawn):
    for row in drawn:
        row["gimbal_pitch_deg"] *= config.rig.gimbal_pitch_sign  # nadir as +90 deg
    columns = {name: np.array([row[name] for row in drawn]) for name in OBSERVATION_COLUMNS}
    trajectory, codes = recover_batch(columns, config)
    expected, expected_codes = stacked_reference(columns, config)

    assert codes.tolist() == expected_codes.tolist()
    for name, axes in (("cam", ("cam_x", "cam_y", "cam_z")), ("enu", ("enu_x", "enu_y", "enu_z"))):
        got = np.column_stack([trajectory[c] for c in axes])
        np.testing.assert_allclose(got, expected[name], rtol=0.0, atol=1e-12)
    for name, atol in (("lat_deg", 1e-12), ("lon_deg", 1e-12), ("alt_m", 1e-8)):
        np.testing.assert_allclose(trajectory[name], expected[name], rtol=0.0, atol=atol)


@pytest.mark.parametrize("n, a_uav, reason", [
    (0, 20.0, None),
    (4, -1.0, "degenerate"),
    (3, 20.0, "parallel_ray"),
], ids=["empty", "all_degenerate", "all_parallel"])
def test_block_without_recovered_rows(n, a_uav, reason):
    """A block with no rows, or whose every row is excluded, gives empty
    float columns, an empty flags column and one int8 code per row."""
    columns = {name: np.zeros(n) for name in OBSERVATION_COLUMNS}
    columns.update(u=np.full(n, 960.0), v=np.full(n, 540.0), a_uav=np.full(n, a_uav))
    config = RunConfig(INTRINSICS, DistortionCoeffs(k1=0.1), RigConfig(gimbal_frame="body"))
    trajectory, codes = recover_batch(columns, config)
    assert codes.dtype == np.int8 and codes.shape == (n,)
    assert [REASONS[c] for c in codes] == [reason] * n
    assert list(trajectory) == TRAJECTORY_COLUMNS
    for name, column in trajectory.items():
        assert column.shape == (0,)
        assert column.dtype.kind == ("U" if name == "flags" else "f")
