import json
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import conftest

from magspec import cli
from magspec.assembly import load_coordinate
from magspec.cli import ConfigError, build_configs, main, parse_config
from magspec.experiments import RunConfig, build_operator

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

SMALL_SPECTRUM = """\
# a quick free-space census
experiment = spectrum
truncation_radius = 3.5
h = 0.3
field = constant
field.b = 1.0          # symmetric gauge
window = 0 2
delta = 0.2
"""

SMALL_LADDER = """\
experiment = ladder
truncation_radius = 3.5
h = 0.35
window = 0 2
delta = 0.2
radii = 3.5, 4.5
"""

SMALL_COMPARE = """\
experiment = compare
truncation_radius = 5.0
h = 0.35
obstacle = disk
obstacle.radius = 1.0
window = 0 2
delta = 0.2
radii = 5.0 6.5
diff_bound = 10
"""


def _cfgfile(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ── Config parsing ─────────────────────────────────────────────────────────


def test_parse_round_trip(tmp_path):
    path = _cfgfile(tmp_path, SMALL_SPECTRUM)
    settings = parse_config(path)
    assert settings["window"] == (0.0, 2.0)
    assert settings["field.b"] == 1.0
    exp, cfg, extras = build_configs(settings)
    assert exp == "spectrum"
    assert cfg.truncation_radius == 3.5
    assert cfg.fieldspec.b == 1.0


def test_parse_unknown_key_has_line_number(tmp_path):
    path = _cfgfile(tmp_path, "h = 0.3\nwobble = 2\n")
    with pytest.raises(ConfigError, match=r":2"):
        parse_config(path)


def test_parse_duplicate_key(tmp_path):
    path = _cfgfile(tmp_path, "h = 0.3\nh = 0.2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(path)


def test_parse_bad_value(tmp_path):
    path = _cfgfile(tmp_path, "h = fast\n")
    with pytest.raises(ConfigError, match=r":1"):
        parse_config(path)
    path2 = _cfgfile(tmp_path, "window = 1 2 3\n", "w.cfg")
    with pytest.raises(ConfigError):
        parse_config(path2)
    path3 = _cfgfile(tmp_path, "just words\n", "n.cfg")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(path3)


def test_parse_choice_check(tmp_path):
    path = _cfgfile(tmp_path, "field = solenoid\n")
    with pytest.raises(ConfigError, match="must be one of"):
        parse_config(path)


def test_build_configs_requires_radii(tmp_path):
    path = _cfgfile(tmp_path, "experiment = ladder\n")
    with pytest.raises(ConfigError, match="radii"):
        build_configs(parse_config(path), where=path)


def test_unset_keys_take_the_run_config_defaults(tmp_path):
    path = _cfgfile(tmp_path, "experiment = spectrum\n")
    exp, cfg, _ = build_configs(parse_config(path))
    assert exp == "spectrum"
    assert cfg == RunConfig()


def test_window_none(tmp_path):
    path = _cfgfile(tmp_path, "window = none\nk = 4\n")
    _, cfg, _ = build_configs(parse_config(path))
    assert cfg.window is None
    assert cfg.k == 4


# ── The schema is RunConfig's ──────────────────────────────────────────────

DISK = {"obstacle": "disk", "obstacle.radius": 1.0}
BOX = {"obstacle": "box", "obstacle.halfwidths": (1.0, 1.0)}
RADIAL = {"field": "radial_decay"}
LADDER = {"experiment": "ladder", "radii": (3.0, 4.0)}
COMPARE = {"experiment": "compare", "radii": (3.0, 4.0)}

# side key -> (settings, the same settings with the key at another value)
SIDE_CHANGES = {
    "obstacle": ({}, DISK),
    "obstacle.center": (DISK, {**DISK, "obstacle.center": (0.5, 0.0)}),
    "obstacle.radius": (DISK, {**DISK, "obstacle.radius": 1.5}),
    "obstacle.halfwidths": (BOX, {**BOX, "obstacle.halfwidths": (1.0, 0.5)}),
    "gamma": (DISK, {**DISK, "gamma": 0.5}),
    "field": ({}, RADIAL),
    "field.b": ({}, {"field.b": 2.0}),
    "field.b0": (RADIAL, {**RADIAL, "field.b0": 2.0}),
    "field.p": (RADIAL, {**RADIAL, "field.p": 3.0}),
}


def _side_b(settings):
    return {**COMPARE, **{"compare." + k: v for k, v in settings.items()}}


KEY_CHANGES = {
    "experiment": ({"radii": (3.0, 4.0)}, LADDER),
    "dimension": ({}, {"dimension": 3}),
    "truncation_radius": ({}, {"truncation_radius": 5.0}),
    "truncation_shape": ({}, {"truncation_shape": "box"}),
    "h": ({}, {"h": 0.3}),
    "boundary": (DISK, {**DISK, "boundary": "dirichlet"}),
    "window": ({}, {"window": None}),
    "k": ({}, {"k": 5}),
    "delta": ({}, {"delta": 0.3}),
    "tol": ({}, {"tol": 1e-6}),
    "cap": ({}, {"cap": 50}),
    "seed": ({}, {"seed": 3}),
    "radii": ({}, {"radii": (3.0, 4.0)}),
    "diff_bound": (LADDER, {**LADDER, "diff_bound": 4}),
    **SIDE_CHANGES,
    **{"compare." + k: (_side_b(a), _side_b(b))
       for k, (a, b) in SIDE_CHANGES.items()},
}


def test_schema_is_the_run_config_fields():
    names = {f.name for f in fields(RunConfig)} - {"fieldspec"} | {"field"}
    cfg = RunConfig()
    assert set(cfg.as_dict()) == names
    echo = cli._config_echo(cfg, "spectrum", {"radii": None})
    assert set(echo) == names | {"experiment"}
    assert names <= set(cli._KEYS)      # every field can be set from a file
    assert set(KEY_CHANGES) == set(cli._KEYS)


@pytest.mark.parametrize("key", sorted(KEY_CHANGES))
def test_every_key_changes_the_built_config(key):
    before, after = KEY_CHANGES[key]
    assert key not in before or before[key] != after[key]
    assert build_configs(after) != build_configs(before)


@pytest.mark.parametrize("text, unread", [
    ("obstacle.radius = 2.0\n", "obstacle.radius"),
    ("obstacle = disk\nobstacle.radius = 1.0\nobstacle.halfwidths = 1 1\n",
     "obstacle.halfwidths"),
    ("obstacle = box\nobstacle.halfwidths = 1 1\nobstacle.radius = 1.0\n",
     "obstacle.radius"),
    ("field.b0 = 2.0\n", "field.b0"),
    ("field = radial_decay\nfield.b = 2.0\n", "field.b"),
    ("field = radial_growth\nfield.b = 2.0\n", "field.b"),
    ("experiment = compare\nradii = 3 4\ncompare.gamma = 0.7\n",
     "compare.gamma"),
    ("compare.field = radial_growth\n", "compare.field"),
])
def test_validate_refuses_keys_the_kind_ignores(tmp_path, capsys, text, unread):
    assert main(["validate", _cfgfile(tmp_path, text)]) == 1
    assert unread in capsys.readouterr().err


# ── validate and landau commands ───────────────────────────────────────────


def test_validate_ok(tmp_path, capsys):
    path = _cfgfile(tmp_path, SMALL_SPECTRUM)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "spectrum" in out


def test_validate_bad_config(tmp_path, capsys):
    path = _cfgfile(tmp_path, "gamma = 0.5\n")   # gamma with no obstacle
    assert main(["validate", path]) == 1
    assert "error" in capsys.readouterr().err


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/x.cfg"]) == 1


def test_landau_stdout(capsys):
    assert main(["landau", "--b", "1.0", "--cutoff", "6"]) == 0
    out = capsys.readouterr().out
    assert "level 1: 1.0" in out and "level 3: 5.0" in out


def test_landau_json(capsys):
    assert main(["landau", "--b", "2.0", "--cutoff", "7", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["levels"] == [2.0, 6.0]
    assert main(["landau", "--b", "1.0", "--dim", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "half_line" and data["threshold"] == 1.0
    assert main(["landau", "--b", "1.0", "--dimension", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "half_line"


def test_console_entry_point(tmp_path):
    out = conftest.run_cli()
    assert out.returncode == 1          # no subcommand is a usage error
    # The `magspec` executable is a wrapper that pip writes from this
    # declaration; run its target the way that wrapper does.
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["magspec"]
    assert target == "magspec.cli:main"
    module, func = target.split(":")
    got = subprocess.run(
        [sys.executable, "-c",
         f"import sys; from {module} import {func}; sys.exit({func}())",
         "landau", "--json"],
        capture_output=True, text=True, env=conftest.package_env())
    assert got.returncode == 0
    assert json.loads(got.stdout)["kind"] == "landau_set"


# ── run command ────────────────────────────────────────────────────────────


def test_run_spectrum_outputs(tmp_path, capsys):
    cfg = _cfgfile(tmp_path, SMALL_SPECTRUM)
    outdir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(outdir)]) == 0
    data = json.loads((outdir / "results.json").read_text())
    assert data["experiment"] == "spectrum"
    assert data["config"]["h"] == 0.3
    assert data["run"]["certified"] is True
    assert "seconds" not in data["run"]
    lines = (outdir / "eigenvalues.csv").read_text().splitlines()
    assert lines[0] == "index,value,residual"
    assert len(lines) == 1 + len(data["run"]["eigenvalues"])
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == data["run"]["eigenvalues"][0]


def test_run_is_deterministic(tmp_path, capsys):
    cfg = _cfgfile(tmp_path, SMALL_SPECTRUM)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2)]) == 0
    assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()
    assert (out1 / "eigenvalues.csv").read_bytes() == (out2 / "eigenvalues.csv").read_bytes()


def test_run_seed_override(tmp_path, capsys):
    cfg = _cfgfile(tmp_path, SMALL_SPECTRUM)
    outdir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(outdir), "--seed", "17"]) == 0
    data = json.loads((outdir / "results.json").read_text())
    assert data["config"]["seed"] == 17


def test_run_export_matrix(tmp_path, capsys):
    cfg = _cfgfile(tmp_path, SMALL_SPECTRUM)
    outdir = tmp_path / "out"
    mat_path = tmp_path / "op.coo"
    assert main(["run", cfg, "--out", str(outdir),
                 "--export-matrix", str(mat_path)]) == 0
    back = load_coordinate(mat_path)
    _, cfg_obj, _ = build_configs(parse_config(cfg))
    _, _, op = build_operator(cfg_obj)
    assert (back - op.mat).nnz == 0


def test_run_ladder_outputs(tmp_path, capsys):
    cfg = _cfgfile(tmp_path, SMALL_LADDER)
    outdir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(outdir), "--jobs", "1"]) == 0
    data = json.loads((outdir / "results.json").read_text())
    assert data["ladder"]["ladder"]["persistent"] == [1.0]
    lines = (outdir / "ladder.csv").read_text().splitlines()
    assert lines[0] == "radius,level,count,off_cluster_fraction"
    assert len(lines) == 3              # one row per (radius, level)


def test_run_compare_pass(tmp_path, capsys):
    cfg = _cfgfile(tmp_path, SMALL_COMPARE)
    outdir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(outdir), "--jobs", "1"]) == 0
    data = json.loads((outdir / "results.json").read_text())
    assert data["verdict"] == "PASS"
    assert data["exit_code"] == 0
    lines = (outdir / "ladder.csv").read_text().splitlines()
    assert lines[0].startswith("side,")
    assert any(line.startswith("a,") for line in lines[1:])
    assert any(line.startswith("b,") for line in lines[1:])


def test_run_compare_fail_exit_code(tmp_path, capsys):
    text = SMALL_COMPARE + "compare.field = radial_growth\ncompare.field.p = 1.0\n"
    cfg = _cfgfile(tmp_path, text)
    outdir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(outdir), "--jobs", "1",
                 "--seed", "5"]) == 2
    data = json.loads((outdir / "results.json").read_text())
    assert data["verdict"] == "FAIL"
    assert data["exit_code"] == 2
    side_b = data["config_b"]
    assert side_b["field"]["kind"] == "radial_growth"
    assert side_b["field"]["p"] == 1.0
    assert side_b["obstacle"] is None
    assert side_b["seed"] == data["config"]["seed"] == 5


def test_run_jobs_defaults_to_one(tmp_path, monkeypatch):
    class Stop(Exception):
        pass

    seen = []

    def fake_compare(*args, jobs, **kwargs):
        seen.append(jobs)
        raise Stop

    monkeypatch.setattr(cli, "ladder_compare", fake_compare)
    with pytest.raises(Stop):
        main(["run", _cfgfile(tmp_path, SMALL_COMPARE),
              "--out", str(tmp_path / "o")])
    assert seen == [1]


def test_run_nonconvergence_is_error(tmp_path, capsys):
    cfg = _cfgfile(tmp_path, SMALL_SPECTRUM + "tol = 0\n")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "solver did not converge" in capsys.readouterr().err


def test_run_window_overflow_is_error(tmp_path, capsys):
    cfg = _cfgfile(tmp_path, SMALL_SPECTRUM + "cap = 1\n")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "cap" in capsys.readouterr().err


def test_run_missing_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "ghost.cfg"),
                 "--out", str(tmp_path)]) == 1
