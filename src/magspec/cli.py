"""Command-line front end.

Three subcommands:

    magspec run CONFIG [--out DIR] [--jobs N] [--seed S] [--export-matrix PATH]
    magspec landau [--b B] [--dim D] [--cutoff C] [--json]
    magspec validate CONFIG

Configs are flat ``key = value`` files (# comments allowed).  A key the run
never reads is an error: ``gamma`` and ``boundary`` need an obstacle, ``k``
needs ``window = none``, ``delta`` and ``cap`` need a window, ``radii`` needs
a ladder or compare, ``diff_bound`` and ``compare.*`` keys need a compare,
and an obstacle's or field's sub-keys need the kind that reads them.
``validate`` also refuses what ``run`` would refuse before or after the
solve: ``h`` or ``tol`` not finite and positive, ``cap`` below 1, a
``delta`` wide enough for two level buckets to overlap, and a ladder or
compare without a window.

``run`` writes results.json, eigenvalues.csv (the run, a ladder's last rung,
or a compare's side A last rung) and, for ladder/compare experiments,
ladder.csv, all deterministic for a fixed config and seed; ``--jobs N``
(default 1) solves ladder rungs in N worker processes.  Exit codes:
0 success or PASS verdict, 2 FAIL verdict, 3 inconclusive, 1 error.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import fields, replace

from .assembly import BOUNDARIES, export_coordinate
from .eigensolve import NonConvergence, WindowOverflow
from .experiments import (RunConfig, build_operator, free_twin, ladder_compare,
                          run_ladder, run_spectrum)
from .fields import KINDS, FieldSpec
from .geometry import (OBSTACLE_KINDS, TRUNCATION_SHAPES, BoxObstacle,
                       DiskObstacle)
from .spectra import landau_levels

EXIT_OK, EXIT_ERROR, EXIT_FAIL, EXIT_INCONCLUSIVE = 0, 1, 2, 3

EXPERIMENTS = ("spectrum", "ladder", "compare")

# key -> (kind, allowed choices or None) for the keys that describe one side
# of a compare; side B takes the same keys under "compare."
_SIDE_KEYS = {
    "obstacle": ("str", OBSTACLE_KINDS),
    "obstacle.center": ("vec", None),
    "obstacle.radius": ("float", None),
    "obstacle.halfwidths": ("vec", None),
    "gamma": ("float", None),
    "field": ("str", KINDS),
    "field.b": ("float", None),
    "field.b0": ("float", None),
    "field.p": ("float", None),
}

_KEYS = {
    "experiment": ("str", EXPERIMENTS),
    "dimension": ("int", None),
    "truncation_radius": ("float", None),
    "truncation_shape": ("str", TRUNCATION_SHAPES),
    "h": ("float", None),
    **_SIDE_KEYS,
    "boundary": ("str", BOUNDARIES),
    "window": ("window", None),
    "k": ("int", None),
    "delta": ("float", None),
    "tol": ("float", None),
    "cap": ("int", None),
    "seed": ("int", None),
    "radii": ("vec", None),
    "diff_bound": ("int", None),
    **{"compare." + key: spec for key, spec in _SIDE_KEYS.items()},
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


def _refuse_unread(settings, keys, read, chosen, where):
    """A set key among `keys` that the chosen kind never reads would be
    silently dropped, so it is an error."""
    unread = [k for k in keys if k in settings and k not in read]
    if unread:
        raise ConfigError(f"{where}: {', '.join(unread)} not used with "
                          f"{chosen}")


def _obstacle_from(settings, side, dimension, where):
    """(obstacle, gamma) of one side; side is "" or "compare."."""
    key = side + "obstacle"
    kind = settings.get(key, "none")
    center, radius, halfwidths = (key + ".center", key + ".radius",
                                  key + ".halfwidths")
    gamma = side + "gamma"
    read = {"none": (), "disk": (center, radius, gamma),
            "box": (center, halfwidths, gamma)}[kind]
    _refuse_unread(settings, (center, radius, halfwidths, gamma), read,
                   f"{key} = {kind}", where)
    if kind == "none":
        return None, RunConfig.gamma
    at = settings.get(center, (0.0,) * dimension)
    if kind == "disk":
        if radius not in settings:
            raise ConfigError(f"{where}: {radius} required for a disk")
        obstacle = DiskObstacle(at, settings[radius])
    else:
        if halfwidths not in settings:
            raise ConfigError(f"{where}: {halfwidths} required for a box")
        obstacle = BoxObstacle(at, settings[halfwidths])
    return obstacle, settings.get(gamma, RunConfig.gamma)


def _field_from(settings, side, dimension, where):
    """The field spec of one side; side is "" or "compare."."""
    key = side + "field"
    kind = settings.get(key, "constant")
    b, b0, p = key + ".b", key + ".b0", key + ".p"
    read = (b,) if kind == "constant" else (b0, p)
    _refuse_unread(settings, (b, b0, p), read, f"{key} = {kind}", where)
    if kind == "constant":
        return FieldSpec.constant(settings.get(b, 1.0), dimension)
    radial = (FieldSpec.radial_decay if kind == "radial_decay"
              else FieldSpec.radial_growth)
    return radial(settings.get(b0, 1.0), settings.get(p, 2.0), dimension)


def build_configs(settings, where="config"):
    """Parsed settings -> (experiment, RunConfig, extras dict).

    extras holds radii, diff_bound and, for a compare, side B's RunConfig
    under "cfg_b"."""
    experiment = settings.get("experiment", "spectrum")
    dim = settings.get("dimension", RunConfig.dimension)
    extras = {"radii": settings.get("radii"),
              "diff_bound": settings.get("diff_bound", 10), "cfg_b": None}
    side_b = [k for k in settings if k.startswith("compare.")]
    read = {"spectrum": (), "ladder": ("radii",),
            "compare": ("radii", "diff_bound", *side_b)}[experiment]
    _refuse_unread(settings, ("radii", "diff_bound", *side_b), read,
                   f"experiment = {experiment}", where)
    if settings.get("obstacle", "none") == "none":
        _refuse_unread(settings, ("boundary",), (), "obstacle = none", where)
    window = settings.get("window", RunConfig.window)
    _refuse_unread(settings, ("k", "delta", "cap"),
                   ("k",) if window is None else ("delta", "cap"),
                   "window = none" if window is None else "a window", where)
    if experiment in ("ladder", "compare"):
        if extras["radii"] is None:
            raise ConfigError(f"{where}: experiment {experiment!r} needs radii")
        if window is None:
            raise ConfigError(f"{where}: experiment {experiment!r} needs a "
                              f"window")
    # RunConfig holds the defaults, so it gets only what the file sets; the
    # file's obstacle and field name kinds, built into objects here
    given = {f.name: settings[f.name] for f in fields(RunConfig)
             if f.name in settings}
    try:
        given["obstacle"], given["gamma"] = _obstacle_from(settings, "", dim,
                                                           where)
        given["fieldspec"] = _field_from(settings, "", dim, where)
        cfg = RunConfig(**given)
        if experiment == "compare":
            # side B: free space with side A's field unless the file says
            field_b = None
            if any(k.startswith("compare.field") for k in settings):
                field_b = _field_from(settings, "compare.", dim, where)
            obstacle_b, gamma_b = _obstacle_from(settings, "compare.", dim,
                                                 where)
            extras["cfg_b"] = replace(
                free_twin(cfg, fieldspec=field_b), obstacle=obstacle_b,
                gamma=gamma_b, boundary=(RunConfig.boundary if obstacle_b
                                         is None else cfg.boundary))
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{where}: {e}")
    return experiment, cfg, extras


def _config_echo(cfg, experiment, extras):
    echo = {"experiment": experiment, **cfg.as_dict()}
    if extras["radii"] is not None:
        echo["radii"] = list(extras["radii"])
        echo["diff_bound"] = extras["diff_bound"]
    return echo


# ── Output files ───────────────────────────────────────────────────────────


def _write_json(outdir, payload):
    path = os.path.join(outdir, "results.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _write_csv(outdir, name, cols, rows):
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[c]) if isinstance(row[c], float)
                              else str(row[c]) for c in cols) + "\n")
    return path


_LADDER_COLS = ["radius", "level", "count", "off_cluster_fraction"]


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


# ── Subcommands ────────────────────────────────────────────────────────────


def _cmd_run(args):
    settings = parse_config(args.config)
    experiment, cfg, extras = build_configs(settings, where=args.config)
    cfg_b = extras["cfg_b"]
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
        if cfg_b is not None:
            cfg_b = replace(cfg_b, seed=args.seed)
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    payload = {"config": _config_echo(cfg, experiment, extras)}
    verdict, exit_code = "ok", EXIT_OK

    if experiment == "spectrum":
        t0 = time.perf_counter()
        last = run_spectrum(cfg)
        seconds = time.perf_counter() - t0
        payload["run"] = last.as_dict()
        print(f"n={last.n}  k={last.result.k}  "
              f"certified={last.result.certified}  {seconds:.1f}s")
        if args.export_matrix:
            _, _, op = build_operator(cfg)
            export_coordinate(op, args.export_matrix)
            print(f"matrix -> {args.export_matrix}")
    elif experiment == "ladder":
        lad = run_ladder(cfg, extras["radii"], jobs=args.jobs)
        payload["ladder"] = lad.as_dict()
        last = lad.rungs[-1]
        _write_csv(outdir, "ladder.csv", _LADDER_COLS, _ladder_rows(lad))
        print(f"radii {list(lad.report.radii)}  persistent "
              f"{list(lad.report.persistent)}  certified {lad.report.certified}")
    else:  # compare
        payload["config_b"] = cfg_b.as_dict()
        comp = ladder_compare(cfg, cfg_b, extras["radii"],
                              diff_bound=extras["diff_bound"], jobs=args.jobs)
        payload["compare"] = comp.as_dict()
        last = comp.ladder_a.rungs[-1]
        rows = _ladder_rows(comp.ladder_a, "a") + _ladder_rows(comp.ladder_b, "b")
        _write_csv(outdir, "ladder.csv", ["side"] + _LADDER_COLS, rows)
        verdict = comp.verdict
        exit_code = {"PASS": EXIT_OK, "FAIL": EXIT_FAIL,
                     "INCONCLUSIVE": EXIT_INCONCLUSIVE}[comp.verdict]
        print(f"verdict: {comp.verdict}  ({comp.reason})")

    res = last.result
    _write_csv(outdir, "eigenvalues.csv", ["index", "value", "residual"],
               [{"index": i, "value": float(v), "residual": float(r)}
                for i, (v, r) in enumerate(zip(res.eigenvalues,
                                               res.residuals))])
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
    experiment, cfg, _ = build_configs(settings, where=args.config)
    print(f"{args.config}: OK ({experiment})")
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
