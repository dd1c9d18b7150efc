"""Command-line front end.

Three subcommands:

    magspec run CONFIG [--out DIR] [--jobs N] [--seed S] [--export-matrix PATH]
    magspec landau [--b B] [--dim D] [--cutoff C] [--json]
    magspec validate CONFIG

Configs are flat ``key = value`` files (# comments allowed).  ``run`` writes
results.json plus eigenvalues.csv, and ladder.csv for ladder/compare
experiments, all deterministic for a fixed config and seed; ``--jobs N``
(default 1) solves ladder rungs in N worker processes.  Exit codes:
0 success or PASS verdict, 2 FAIL verdict, 3 inconclusive, 1 error.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from .assembly import export_coordinate
from .eigensolve import NonConvergence, WindowOverflow
from .experiments import (RunConfig, build_operator, free_twin, ladder_compare,
                          run_ladder, run_spectrum)
from .fields import FieldSpec
from .geometry import BoxObstacle, DiskObstacle
from .spectra import landau_levels

EXIT_OK, EXIT_ERROR, EXIT_FAIL, EXIT_INCONCLUSIVE = 0, 1, 2, 3

EXPERIMENTS = ("spectrum", "ladder", "compare", "landau")

# key -> (kind, allowed choices or None)
_KEYS = {
    "experiment": ("str", EXPERIMENTS),
    "dimension": ("int", None),
    "truncation_radius": ("float", None),
    "truncation_shape": ("str", ("box", "disk")),
    "h": ("float", None),
    "obstacle": ("str", ("none", "disk", "box")),
    "obstacle.center": ("vec", None),
    "obstacle.radius": ("float", None),
    "obstacle.halfwidths": ("vec", None),
    "field": ("str", ("constant", "radial_decay", "radial_growth")),
    "field.b": ("float", None),
    "field.b0": ("float", None),
    "field.p": ("float", None),
    "gamma": ("float", None),
    "boundary": ("str", ("robin", "dirichlet")),
    "window": ("window", None),
    "k": ("int", None),
    "delta": ("float", None),
    "tol": ("float", None),
    "cap": ("int", None),
    "seed": ("int", None),
    "radii": ("vec", None),
    "diff_bound": ("int", None),
    "compare.obstacle": ("str", ("none", "disk", "box")),
    "compare.obstacle.center": ("vec", None),
    "compare.obstacle.radius": ("float", None),
    "compare.obstacle.halfwidths": ("vec", None),
    "compare.field": ("str", ("constant", "radial_decay", "radial_growth")),
    "compare.field.b": ("float", None),
    "compare.field.b0": ("float", None),
    "compare.field.p": ("float", None),
    "compare.gamma": ("float", None),
    "landau.b": ("float", None),
    "landau.dimension": ("int", None),
    "landau.cutoff": ("float", None),
}


class ConfigError(Exception):
    pass


def _coerce(key, raw, where):
    kind, choices = _KEYS[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "vec":
            return tuple(float(p) for p in raw.replace(",", " ").split())
        if kind == "window":
            if raw.lower() == "none":
                return None
            parts = [float(p) for p in raw.replace(",", " ").split()]
            if len(parts) != 2:
                raise ValueError("expected two numbers")
            return (parts[0], parts[1])
    except ValueError as e:
        raise ConfigError(f"{where}: bad value for {key!r}: {raw!r} ({e})")
    val = raw.strip()
    if choices is not None and val not in choices:
        raise ConfigError(
            f"{where}: {key!r} must be one of {', '.join(choices)}; got {val!r}")
    return val


def parse_config(path):
    """Flat key=value file -> dict, with line-precise errors."""
    settings = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{where}: expected 'key = value', got "
                                  f"{stripped!r}")
            key, raw = (p.strip() for p in stripped.split("=", 1))
            if key not in _KEYS:
                raise ConfigError(f"{where}: unknown key {key!r}")
            if key in settings:
                raise ConfigError(f"{where}: duplicate key {key!r}")
            settings[key] = _coerce(key, raw, where)
    return settings


def _obstacle_from(settings, prefix, where):
    kind = settings.get(prefix, "none")
    if kind == "none":
        return None
    center = settings.get(prefix + ".center",
                          (0.0,) * settings.get("dimension", RunConfig.dimension))
    if kind == "disk":
        if prefix + ".radius" not in settings:
            raise ConfigError(f"{where}: {prefix}.radius required for a disk")
        return DiskObstacle(tuple(center), settings[prefix + ".radius"])
    if prefix + ".halfwidths" not in settings:
        raise ConfigError(f"{where}: {prefix}.halfwidths required for a box")
    return BoxObstacle(tuple(center), tuple(settings[prefix + ".halfwidths"]))


def _field_from(settings, prefix, dimension, where):
    kind = settings.get(prefix, "constant")
    if kind == "constant":
        return FieldSpec.constant(settings.get(prefix + ".b", 1.0), dimension)
    b0 = settings.get(prefix + ".b0", 1.0)
    p = settings.get(prefix + ".p", 2.0)
    if kind == "radial_decay":
        return FieldSpec.radial_decay(b0, p, dimension)
    return FieldSpec.radial_growth(b0, p, dimension)


def build_configs(settings, where="config"):
    """Parsed settings -> (experiment, RunConfig, extras dict)."""
    experiment = settings.get("experiment", "spectrum")
    dim = settings.get("dimension", RunConfig.dimension)
    extras = {
        "radii": settings.get("radii"),
        "diff_bound": settings.get("diff_bound", 10),
        "landau": (settings.get("landau.b", 1.0),
                   settings.get("landau.dimension", dim),
                   settings.get("landau.cutoff", 6.0)),
    }
    # RunConfig holds the defaults, so it gets only what the file sets; the
    # file's obstacle and field name kinds, built into objects here
    given = {f.name: settings[f.name] for f in fields(RunConfig)
             if f.name in settings}
    try:
        given.update(obstacle=_obstacle_from(settings, "obstacle", where),
                     fieldspec=_field_from(settings, "field", dim, where))
        cfg = RunConfig(**given)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{where}: {e}")
    if experiment in ("ladder", "compare") and extras["radii"] is None:
        raise ConfigError(f"{where}: experiment {experiment!r} needs radii")
    cfg_b = None
    if experiment == "compare":
        try:
            over = None
            if any(k.startswith("compare.field") for k in settings):
                over = _field_from(settings, "compare.field", dim, where)
            cfg_b = free_twin(cfg, fieldspec=over)
            if any(k.startswith("compare.obstacle") for k in settings):
                cfg_b = replace(
                    cfg_b,
                    obstacle=_obstacle_from(settings, "compare.obstacle", where),
                    gamma=settings.get("compare.gamma", 0.0))
        except (ValueError, TypeError) as e:
            raise ConfigError(f"{where}: {e}")
    extras["cfg_b"] = cfg_b
    return experiment, cfg, extras


def _config_echo(cfg, experiment, extras):
    def obstacle_dict(ob):
        if ob is None:
            return None
        if isinstance(ob, DiskObstacle):
            return {"kind": "disk", "center": list(ob.center),
                    "radius": ob.radius}
        return {"kind": "box", "center": list(ob.center),
                "halfwidths": list(ob.halfwidths)}

    echo = {
        "experiment": experiment,
        "dimension": cfg.dimension,
        "truncation_radius": cfg.truncation_radius,
        "truncation_shape": cfg.truncation_shape,
        "obstacle": obstacle_dict(cfg.obstacle),
        "field": asdict(cfg.fieldspec),
        "gamma": cfg.gamma,
        "boundary": cfg.boundary,
        "h": cfg.h,
        "window": list(cfg.window) if cfg.window else None,
        "k": cfg.k,
        "delta": cfg.delta,
        "tol": cfg.tol,
        "cap": cfg.cap,
        "seed": cfg.seed,
    }
    if extras["radii"] is not None:
        echo["radii"] = list(extras["radii"])
        echo["diff_bound"] = extras["diff_bound"]
    return echo


# ── Output files ───────────────────────────────────────────────────────────


def _strip_timings(obj):
    """Drop wall-clock fields so rerunning a config reproduces the file
    byte for byte."""
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def _write_json(outdir, payload):
    path = os.path.join(outdir, "results.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_strip_timings(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _write_eigenvalues(outdir, run):
    path = os.path.join(outdir, "eigenvalues.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,value,residual\n")
        for i, (v, r) in enumerate(zip(run.result.eigenvalues,
                                       run.result.residuals)):
            fh.write(f"{i},{float(v)!r},{float(r)!r}\n")
    return path


def _ladder_rows(ladder_run, side=None):
    rows = []
    for radius, rep in zip(ladder_run.report.radii, ladder_run.report.reports):
        for b in rep.buckets:
            row = {"radius": radius, "level": b.level, "count": b.count,
                   "off_cluster_fraction": rep.off_cluster_fraction}
            if side is not None:
                row["side"] = side
            rows.append(row)
    return rows


def _write_ladder_csv(outdir, rows, with_side):
    path = os.path.join(outdir, "ladder.csv")
    cols = ["radius", "level", "count", "off_cluster_fraction"]
    if with_side:
        cols = ["side"] + cols
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[c]) if isinstance(row[c], float)
                              else str(row[c]) for c in cols) + "\n")
    return path


# ── Subcommands ────────────────────────────────────────────────────────────


def _cmd_run(args):
    settings = parse_config(args.config)
    experiment, cfg, extras = build_configs(settings, where=args.config)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
        if extras.get("cfg_b") is not None:
            extras["cfg_b"] = replace(extras["cfg_b"], seed=args.seed)
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    payload = {"config": _config_echo(cfg, experiment, extras)}
    verdict, exit_code = "ok", EXIT_OK

    if experiment == "landau":
        b, dim, cutoff = extras["landau"]
        model = landau_levels(b, dim, cutoff)
        payload["landau"] = {
            "kind": model.kind,
            "levels": list(model.levels),
            "threshold": model.threshold,
        }
        print(f"model: {model.kind}  levels: {list(model.levels)}  "
              f"threshold: {model.threshold}")
    elif experiment == "spectrum":
        run = run_spectrum(cfg)
        payload["run"] = run.as_dict()
        _write_eigenvalues(outdir, run)
        print(f"n={run.n}  k={run.result.k}  certified={run.result.certified}  "
              f"{run.seconds:.1f}s")
        if args.export_matrix:
            _, _, op = build_operator(cfg)
            export_coordinate(op, args.export_matrix)
            print(f"matrix -> {args.export_matrix}")
    elif experiment == "ladder":
        lad = run_ladder(cfg, extras["radii"], jobs=args.jobs)
        payload["ladder"] = lad.as_dict()
        _write_eigenvalues(outdir, lad.rungs[-1])
        _write_ladder_csv(outdir, _ladder_rows(lad), with_side=False)
        print(f"radii {list(lad.report.radii)}  persistent "
              f"{list(lad.report.persistent)}  certified {lad.report.certified}")
    else:  # compare
        cfg_b = extras["cfg_b"] or free_twin(cfg)
        comp = ladder_compare(cfg, cfg_b, extras["radii"],
                              diff_bound=extras["diff_bound"], jobs=args.jobs)
        payload["compare"] = comp.as_dict()
        _write_eigenvalues(outdir, comp.ladder_a.rungs[-1])
        rows = _ladder_rows(comp.ladder_a, "a") + _ladder_rows(comp.ladder_b, "b")
        _write_ladder_csv(outdir, rows, with_side=True)
        verdict = comp.verdict
        exit_code = {"PASS": EXIT_OK, "FAIL": EXIT_FAIL,
                     "INCONCLUSIVE": EXIT_INCONCLUSIVE}[comp.verdict]
        print(f"verdict: {comp.verdict}  ({comp.reason})")

    payload["experiment"] = experiment
    payload["verdict"] = verdict
    payload["exit_code"] = exit_code
    path = _write_json(outdir, payload)
    print(f"results -> {path}")
    return exit_code


def _cmd_landau(args):
    model = landau_levels(args.b, args.dimension, args.cutoff)
    if args.json:
        print(json.dumps({"kind": model.kind, "levels": list(model.levels),
                          "threshold": model.threshold}, sort_keys=True))
    elif model.kind == "landau_set":
        for n, lev in enumerate(model.levels, start=1):
            print(f"level {n}: {lev!r}")
    elif model.kind == "half_line":
        print(f"half line from {model.threshold!r}")
    else:
        print("empty below the cutoff")
    return EXIT_OK


def _cmd_validate(args):
    settings = parse_config(args.config)
    experiment, cfg, extras = build_configs(settings, where=args.config)
    print(f"{args.config}: OK ({experiment})")
    if experiment != "landau":
        dom = cfg.domain()
        print(f"  domain: d={dom.dimension} R={dom.truncation_radius} "
              f"{dom.truncation_shape}, obstacle "
              f"{'none' if dom.obstacle is None else type(dom.obstacle).__name__}")
        print(f"  field: {cfg.fieldspec.kind}, h={cfg.h}, "
              f"window={cfg.window}, seed={cfg.seed}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # usage problems are plain errors (exit 1); 2/3 are verdict codes
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_ERROR)


def main(argv=None):
    parser = _Parser(prog="magspec",
                     description="spectral experiments for magnetic lattice "
                                 "operators on truncated exterior domains")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="parallel ladder rungs (default 1)")
    p_run.add_argument("--export-matrix", default=None, metavar="PATH",
                       help="also export the assembled operator "
                            "(coordinate format)")
    p_run.set_defaults(fn=_cmd_run)

    p_lan = sub.add_parser("landau", help="print the level model for a "
                                          "constant field")
    p_lan.add_argument("--b", type=float, default=1.0)
    p_lan.add_argument("--dim", "--dimension", dest="dimension", type=int,
                       default=2)
    p_lan.add_argument("--cutoff", type=float, default=6.0)
    p_lan.add_argument("--json", action="store_true")
    p_lan.set_defaults(fn=_cmd_landau)

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("config")
    p_val.set_defaults(fn=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NonConvergence as e:
        sys.stderr.write(f"error: solver did not converge: {e}\n")
        return EXIT_ERROR
    except (ConfigError, FileNotFoundError, WindowOverflow, ValueError,
            TypeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
