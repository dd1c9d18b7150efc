import json
import re
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
    "experiment": (LADDER, COMPARE),
    "dimension": ({}, {"dimension": 3}),
    "truncation_radius": ({}, {"truncation_radius": 5.0}),
    "truncation_shape": ({}, {"truncation_shape": "box"}),
    "h": ({}, {"h": 0.3}),
    "boundary": (DISK, {**DISK, "boundary": "dirichlet"}),
    "window": ({}, {"window": None}),
    "k": ({"window": None}, {"window": None, "k": 5}),
    "delta": ({}, {"delta": 0.3}),
    "tol": ({}, {"tol": 1e-6}),
    "cap": ({}, {"cap": 50}),
    "seed": ({}, {"seed": 3}),
    "radii": (LADDER, {**LADDER, "radii": (3.0, 5.0)}),
    "diff_bound": (COMPARE, {**COMPARE, "diff_bound": 4}),
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
    ("window = 0 2\nk = 7\n", "k"),
    ("window = none\ndelta = 0.2\n", "delta"),
    ("window = none\ncap = 50\n", "cap"),
    ("radii = 3 4\n", "radii"),
    ("diff_bound = 2\n", "diff_bound"),
    ("experiment = ladder\nradii = 3 4\ndiff_bound = 4\n", "diff_bound"),
    ("boundary = dirichlet\n", "boundary"),
    ("boundary = robin\n", "boundary"),
])
def test_validate_refuses_keys_the_kind_ignores(tmp_path, capsys, text, unread):
    assert main(["validate", _cfgfile(tmp_path, text)]) == 1
    assert unread in capsys.readouterr().err


@pytest.mark.parametrize("text, why", [
    ("h = -0.1\n", "h must be finite and positive"),
    ("h = nan\n", "h must be finite and positive"),
    ("tol = -1\n", "tol must be finite and positive"),
    ("tol = 0\n", "tol must be finite and positive"),
    ("cap = 0\n", "cap must be positive"),
    ("truncation_radius = -2\n",
     "truncation_radius must be finite and positive"),
    ("truncation_radius = nan\n",
     "truncation_radius must be finite and positive"),
    ("experiment = ladder\nradii = 3 4\ntruncation_radius = -2\n",
     "truncation_radius must be finite and positive"),
    ("experiment = ladder\nradii = 3 4\ntruncation_radius = nan\n",
     "truncation_radius must be finite and positive"),
    ("delta = 1.5\n", "delta too wide"),
    ("experiment = ladder\nradii = 3 4\nwindow = none\n", "needs a window"),
    ("experiment = compare\nradii = 3 4\nwindow = none\n",
     "needs a window"),
    ("experiment = ladder\nradii = 4.4 4.0\n", "strictly increasing"),
    ("experiment = ladder\nradii = 4 4\n", "strictly increasing"),
    ("experiment = ladder\nradii =\n", "radii must not be empty"),
    ("experiment = ladder\nradii = -1 4\n", "finite and positive"),
    ("experiment = compare\nradii = 4.4 4.0\n", "strictly increasing"),
    ("experiment = compare\nradii = 3 4\ndiff_bound = -1\n",
     "diff_bound must be non-negative"),
])
def test_validate_refuses_values_that_run_refuses(tmp_path, capsys, text, why):
    assert main(["validate", _cfgfile(tmp_path, text)]) == 1
    assert why in capsys.readouterr().err


def test_side_b_reads_boundary_only_with_an_obstacle():
    walled = {**COMPARE, **DISK, "boundary": "dirichlet"}
    _, cfg, extras = build_configs(walled)
    assert cfg.boundary == "dirichlet"
    assert extras["cfg_b"].obstacle is None
    assert extras["cfg_b"].boundary == RunConfig.boundary
    _, _, extras = build_configs({**walled, "compare.obstacle": "box",
                                  "compare.obstacle.halfwidths": (0.8, 0.8)})
    assert extras["cfg_b"].boundary == "dirichlet"


def test_readme_comparison_config_validates(tmp_path, capsys):
    # the README's complete comparison example must stay a valid config
    readme = (PYPROJECT.parent / "README.md").read_text(encoding="utf-8")
    # fenced blocks: every other ``` line opens one
    blocks = re.split(r"^```.*\n", readme, flags=re.M)[1::2]
    example = [b for b in blocks if b.startswith("experiment = compare")]
    assert len(example) == 1
    assert main(["validate", _cfgfile(tmp_path, example[0])]) == 0
    assert "OK (compare)" in capsys.readouterr().out


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
    assert not _keys_named("seconds", data)
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


@pytest.mark.parametrize("text", [SMALL_LADDER, SMALL_COMPARE],
                         ids=["ladder", "compare"])
def test_export_matrix_refused_outside_spectrum(tmp_path, capsys,
                                                monkeypatch, text):
    # the export reads one operator, which a ladder or compare does not
    # have: the flag is refused before anything is solved or written
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before refusing --export-matrix")

    monkeypatch.setattr(cli, "run_ladder", no_solve)
    monkeypatch.setattr(cli, "ladder_compare", no_solve)
    outdir, mat_path = tmp_path / "out", tmp_path / "op.coo"
    assert main(["run", _cfgfile(tmp_path, text), "--out", str(outdir),
                 "--export-matrix", str(mat_path)]) == 1
    assert "--export-matrix" in capsys.readouterr().err
    assert not mat_path.exists() and not outdir.exists()


def _keys_named(name, obj):
    """Every key `name` at any depth of a JSON payload."""
    if isinstance(obj, dict):
        return [k for k in obj if k == name] + [
            hit for v in obj.values() for hit in _keys_named(name, v)]
    if isinstance(obj, list):
        return [hit for v in obj for hit in _keys_named(name, v)]
    return []


def test_run_ladder_outputs(tmp_path, capsys):
    cfg = _cfgfile(tmp_path, SMALL_LADDER)
    outdir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(outdir), "--jobs", "1"]) == 0
    data = json.loads((outdir / "results.json").read_text())
    assert data["ladder"]["ladder"]["persistent"] == [1.0]
    # a ladder never reads diff_bound, and its config refuses the key
    assert "diff_bound" not in data["config"]
    assert not _keys_named("seconds", data)
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
    assert data["config"]["diff_bound"] == 10
    assert not _keys_named("seconds", data)
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


def test_run_jobs_defaults_to_one(tmp_path, capsys, monkeypatch):
    # rungs run one after another in this process; --jobs accepts only 1
    class Stop(Exception):
        pass

    seen = []

    def fake_compare(*args, **kwargs):
        seen.append(kwargs)
        raise Stop

    monkeypatch.setattr(cli, "ladder_compare", fake_compare)
    cfg = _cfgfile(tmp_path, SMALL_COMPARE)
    for jobs in ([], ["--jobs", "1"]):
        with pytest.raises(Stop):
            main(["run", cfg, "--out", str(tmp_path / "o"), *jobs])
    assert seen == [{"diff_bound": 10}] * 2
    capsys.readouterr()
    for jobs in ("2", "0"):
        outdir = tmp_path / f"o{jobs}"
        with pytest.raises(SystemExit) as stop:
            main(["run", cfg, "--out", str(outdir), "--jobs", jobs])
        assert stop.value.code == 1
        out = capsys.readouterr()
        assert out.out == "" and "--jobs" in out.err
        assert not outdir.exists()
    assert len(seen) == 2


def test_run_nonconvergence_is_error(tmp_path, capsys):
    # positive, but far below what rounding lets a residual reach
    cfg = _cfgfile(tmp_path, SMALL_SPECTRUM + "tol = 1e-300\n")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "solver did not converge" in capsys.readouterr().err


def test_run_window_overflow_is_error(tmp_path, capsys):
    cfg = _cfgfile(tmp_path, SMALL_SPECTRUM + "cap = 1\n")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "cap" in capsys.readouterr().err


def test_run_missing_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "ghost.cfg"),
                 "--out", str(tmp_path)]) == 1
