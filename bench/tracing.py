"""Outside-in layer timing for depthray.

Each public function is wrapped at the name its caller looks up, so no
file of the package changes. Every call becomes a span with a layer
name and the layer of the span that caused it; spans are aggregated in
memory per (parent layer, layer) edge. A layer's self time is its total
time minus the time of its child spans.
"""

import functools
import importlib
import time

# (module whose namespace the caller looks the name up in, attribute, layer)
WRAPS = (
    ("depthray.cli", "cmd_simulate", "cli.simulate"),
    ("depthray.cli", "cmd_recover", "cli.recover"),
    ("depthray.cli", "cmd_evaluate", "cli.evaluate"),
    ("depthray.cli", "generate_logs", "synth.generate_logs"),
    ("depthray.cli", "recover_camera_frame", "recovery.recover_camera_frame"),
    ("depthray.cli", "camera_to_uav_enu", "recovery.camera_to_uav_enu"),
    ("depthray.cli", "enu_to_ecef", "geodesy.enu_to_ecef"),
    ("depthray.cli", "ecef_to_geodetic", "geodesy.ecef_to_geodetic"),
    ("depthray.cli", "time_sync", "evaluate.time_sync"),
    ("depthray.cli", "enu_to_ground_truth", "evaluate.enu_to_ground_truth"),
    ("depthray.cli", "trajectory_errors", "evaluate.trajectory_errors"),
    ("depthray.recovery", "pixel_to_normalized", "camera.pixel_to_normalized"),
    ("depthray.recovery", "undistort", "camera.undistort"),
    ("depthray.recovery", "camera_rotation", "recovery.camera_rotation"),
    ("depthray.recovery", "yaw_pitch_roll_matrix", "geometry.yaw_pitch_roll_matrix"),
    ("depthray.recovery", "intersect_ray_plane", "geometry.intersect_ray_plane"),
    ("depthray.camera", "distort", "camera.distort"),
    ("depthray.synth", "project_point", "synth.project_point"),
    ("depthray.synth", "camera_rotation", "recovery.camera_rotation"),
    ("depthray.io", "load_run_config", "io.load_run_config"),
    ("depthray.io", "load_scenario_config", "io.load_scenario_config"),
    ("depthray.io", "read_observations", "io.read_observations"),
    ("depthray.io", "write_observations", "io.write_observations"),
    ("depthray.io", "read_ground_truth", "io.read_ground_truth"),
    ("depthray.io", "write_ground_truth", "io.write_ground_truth"),
    ("depthray.io", "read_trajectory", "io.read_trajectory"),
    ("depthray.io", "write_trajectory", "io.write_trajectory"),
    ("depthray.io", "read_track", "io.read_track"),
    ("depthray.io", "write_exclusions", "io.write_exclusions"),
)


class Tracer:
    """Installs the wrappers and aggregates their spans."""

    def __init__(self):
        self.edges = {}  # (parent layer or None, layer) -> [calls, total_s, child_s]
        self.max_children = {}  # layer -> most wrapped calls made by one of its spans
        self.missing = []  # "module.attribute" names that no longer exist
        self._stack = []

    def install(self):
        for module_name, attr, layer in WRAPS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, layer))

    def _wrap(self, fn, layer):
        stack, edges, max_children = self._stack, self.edges, self.max_children

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0.0, 0]  # layer, time in child spans, child span count
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                key = (parent[0] if parent else None, layer)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += frame[1]
                if frame[2] > max_children.get(layer, 0):
                    max_children[layer] = frame[2]
                if parent is not None:
                    parent[1] += elapsed
                    parent[2] += 1

        return traced

    def layers(self):
        """Per layer: calls, total seconds, self seconds, max child spans."""
        out = {}
        for (_, layer), (calls, total, child) in self.edges.items():
            agg = out.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += calls
            agg["total_s"] += total
            agg["self_s"] += total - child
        for layer, agg in out.items():
            agg["max_children"] = self.max_children.get(layer, 0)
        return out

    def edge_calls(self, parent, layer):
        edge = self.edges.get((parent, layer))
        return edge[0] if edge else 0

    def report(self):
        return {
            "layers": self.layers(),
            "edges": [
                {"parent": parent, "layer": layer, "calls": calls, "total_s": total,
                 "self_s": total - child}
                for (parent, layer), (calls, total, child) in sorted(
                    self.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1])
                )
            ],
            "distort_evals_in_undistort": self.edge_calls("camera.undistort", "camera.distort"),
            "missing": self.missing,
        }
