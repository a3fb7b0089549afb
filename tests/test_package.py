import builtins
import importlib
import re
from pathlib import Path

import depthray
from depthray import errors, io
from depthray.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in depthray.__all__ if not hasattr(depthray, name)]
    assert missing == []
    assert len(set(depthray.__all__)) == len(depthray.__all__)


def library_section():
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_names_every_module():
    # each module of the package is documented, and each documented one exists
    named = set(re.findall(r"`depthray\.(\w+)`", library_section()))
    for name in sorted(named):
        importlib.import_module(f"depthray.{name}")
    package = Path(depthray.__file__).parent
    assert named == {path.stem for path in package.glob("*.py")} - {"__init__"}


def test_readme_library_classes_are_exported():
    # a class the Library section names (`Name`, `module.Name`, `Name.field`)
    # is one the package exports, an error type or a builtin, so that a
    # renamed class does not linger in the text
    named = set(re.findall(r"`(?:\w+\.)?([A-Z]\w*)[`.]", library_section()))
    assert "Camera" in named
    stale = sorted(name for name in named if not (
        name in depthray.__all__ or hasattr(errors, name) or hasattr(builtins, name)
    ))
    assert stale == []


def readme_block(heading, language="python"):
    """The first block of `language` after a README heading."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("\n```", 1)[0]


def test_readme_batch_api_block_runs(tmp_path, monkeypatch):
    (tmp_path / "cal.yaml").write_text(
        "fx: 1000.0\nfy: 1000.0\ncx: 960.0\ncy: 540.0\nwidth: 1920\nheight: 1080\nk1: -0.1\n",
        encoding="utf-8",
    )
    (tmp_path / "run.yaml").write_text("calibration: cal.yaml\n", encoding="utf-8")
    (tmp_path / "scenario.yaml").write_text(
        "n_samples: 20\naltitude: 25.0\ndepth_min: 0.63\nref_lat_deg: 42.87\n"
        "ref_lon_deg: 17.7\nsigma_px: 1.0\ncalibration: cal.yaml\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", "scenario.yaml", "--output", "obs.csv",
                 "--gt", "gt.csv"]) == 0
    exec(compile(readme_block("### Batch API"), str(README), "exec"), {})
    assert len(io.read_trajectory("traj.csv")["t"]) == 20


CONFIG_BLOCKS = {
    "cal.yaml": ("### Calibration file", io.CALIBRATION_TABLE),
    "run.yaml": ("### Run configuration (`recover`, `evaluate`)", io.RUN_CONFIG_TABLE),
    "scenario.yaml": ("### Scenario description (`simulate`)", io.SCENARIO_TABLE),
}


def test_readme_config_blocks_name_every_key_and_run(tmp_path, monkeypatch):
    # each block names each key of its table once, an optional one maybe commented out
    for name, (heading, table) in CONFIG_BLOCKS.items():
        block = readme_block(heading, "yaml")
        keys = re.findall(r"^(?:# ?)?(\w+):", block, re.MULTILINE)
        assert sorted(keys) == sorted(table), name
        (tmp_path / name).write_text(block + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", "scenario.yaml", "--output", "obs.csv",
                 "--gt", "gt.csv"]) == 0
    assert main(["recover", "--config", "run.yaml", "--input", "obs.csv",
                 "--output", "traj.csv"]) == 0
    assert main(["evaluate", "--config", "run.yaml", "--input", "traj.csv", "--gt", "gt.csv",
                 "--output", "report.json"]) == 0
