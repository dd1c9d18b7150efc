"""The four benchmark workloads: inputs, one timed pass, correctness checks.

Each workload is a class with

    prepare(workdir)          -> state   (untimed; part of set-up)
    run_pass(state, seed)     -> output  (the timed pass)
    checks(output, ref)       -> [Op]    (one Op per rung or probe step)
    reference(output)         -> dict    (what pin_references.py stores)

and two scales: "full" is what the benchmark measures, "toy" is a seconds-
long version of the same pipeline used for warm-up and by the harness tests.

Every call into magspec goes through a module attribute (``cli.main``,
``experiments.run_ladder``, ...) so that the traced run, which patches those
attributes, sees each layer boundary.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from magspec import assembly, cli, eigensolve, experiments, fields, geometry, probes

EIG_ATOL = 1e-7        # eigenvalue agreement with the pinned reference
SV_RTOL = 1e-6         # singular-value agreement with the pinned reference
SHIFT_RTOL = 1e-9      # the positivity shift comes from a dense solve
SV_RATIO_MAX = 0.1     # sv10 / sv1: the resolvent difference is low rank
SHRINK_MIN = 1.5       # identity gap, coarse over fine spacing
IDENTITY_FIELDS = 4    # random field pairs per spacing in the identity probe


@dataclass
class Op:
    """One operation of a pass: a rung or a probe step, with what failed."""

    label: str
    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.problems


# ── shared rung checks ─────────────────────────────────────────────────────


def _rung_reference(rung):
    return {"n": rung["n"], "counts": rung["cluster_report"]["counts"],
            "eigenvalues": rung["eigenvalues"]}


def _check_eigenvalues(op, values, ref_values):
    if len(values) != len(ref_values):
        op.problems.append(f"{len(values)} eigenvalues, reference has "
                           f"{len(ref_values)}")
        return
    if len(values):
        err = float(np.max(np.abs(np.asarray(values) - np.asarray(ref_values))))
        if not err <= EIG_ATOL:
            op.problems.append(f"eigenvalues off by {err:.2e} (> {EIG_ATOL})")


def _check_rung(label, rung, ref, tol):
    op = Op(label)
    if rung["n"] != ref["n"]:
        op.problems.append(f"n={rung['n']}, reference {ref['n']}")
    if not rung["certified"]:
        op.problems.append("window census not certified")
    counts = rung["cluster_report"]["counts"]
    if counts != ref["counts"]:
        op.problems.append(f"counts {counts}, reference {ref['counts']}")
    res = rung["residuals"]
    if res and not max(res) <= tol:
        op.problems.append(f"residual {max(res):.2e} > tol {tol}")
    _check_eigenvalues(op, rung["eigenvalues"], ref["eigenvalues"])
    return op


def _check_ladder(label, ladder, ref):
    op = Op(label)
    if ladder["persistent"] != ref["persistent"]:
        op.problems.append(f"persistent levels {ladder['persistent']}, "
                           f"reference {ref['persistent']}")
    if not ladder["certified"]:
        op.problems.append("ladder not certified")
    return op


# ── census_sliced: compare experiment through the command line ─────────────


class CensusSliced:
    """Obstacle-vs-free ladder comparison run as ``magspec run CONFIG``.

    Every rung has n > DENSE_CUTOFF, so each window goes through inertia
    counts (sparse LDL^T-style factorizations) and shift-invert Lanczos.
    """

    name = "census_sliced"
    SCALES = {
        "full": dict(h=0.12, radii=(6.0, 6.4), obstacle=2.0, window=(0.0, 4.0)),
        "toy": dict(h=0.4, radii=(4.0, 4.4), obstacle=1.0, window=(0.0, 4.0)),
    }

    def __init__(self, scale):
        self.p = self.SCALES[scale]

    def prepare(self, workdir):
        p = self.p
        os.makedirs(workdir, exist_ok=True)
        path = os.path.join(workdir, "compare.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                "experiment = compare\n"
                "truncation_shape = disk\n"
                f"truncation_radius = {p['radii'][-1]!r}\n"
                f"h = {p['h']!r}\n"
                "field = constant\n"
                "field.b = 1.0\n"
                "obstacle = disk\n"
                f"obstacle.radius = {p['obstacle']!r}\n"
                "gamma = 0.5\n"
                f"window = {p['window'][0]!r} {p['window'][1]!r}\n"
                "delta = 0.15\n"
                f"radii = {' '.join(repr(r) for r in p['radii'])}\n")
        out = os.path.join(workdir, "out")
        os.makedirs(out, exist_ok=True)
        return {"config": path, "out": out}

    def run_pass(self, state, seed):
        for name in os.listdir(state["out"]):
            os.remove(os.path.join(state["out"], name))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", state["config"], "--out", state["out"],
                             "--jobs", "1", "--seed", str(seed)])
        return {"exit_code": code, "out": state["out"]}

    def _payload(self, output):
        path = os.path.join(output["out"], "results.json")
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def reference(self, output):
        comp = self._payload(output)["compare"]
        return {side: {"rungs": [_rung_reference(r)
                                 for r in comp[side]["rungs"]],
                       "persistent": comp[side]["ladder"]["persistent"]}
                for side in ("side_a", "side_b")}

    def checks(self, output, ref):
        payload = self._payload(output)
        ops = []
        for side in ("side_a", "side_b"):
            nr = len(ref[side]["rungs"])
            if payload is None or "compare" not in payload:
                ops += [Op(f"{side} rung {i}", ["no results.json written"])
                        for i in range(nr)]
                ops.append(Op(f"{side} ladder", ["no results.json written"]))
                continue
            got = payload["compare"][side]
            tol = payload["config"]["tol"]
            if len(got["rungs"]) != nr:
                ops.append(Op(f"{side} rungs", [f"{len(got['rungs'])} rungs, "
                                                f"reference {nr}"]))
            for i, (rung, rref) in enumerate(zip(got["rungs"],
                                                 ref[side]["rungs"])):
                ops.append(_check_rung(f"{side} rung {i}", rung, rref, tol))
            ops.append(_check_ladder(f"{side} ladder", got["ladder"], ref[side]))
        verdict = Op("verdict")
        if output["exit_code"] != 0:
            verdict.problems.append(f"exit code {output['exit_code']}")
        if payload is None or payload.get("verdict") != "PASS":
            verdict.problems.append(
                f"verdict {None if payload is None else payload.get('verdict')}")
        ops.append(verdict)
        return ops


# ── lowest_lanczos: decaying field, thick-restart Lanczos ──────────────────


class LowestLanczos:
    """k lowest eigenvalues under a decaying field by restarted Lanczos.

    The operator is small enough for a dense solve, so the Krylov path is
    requested explicitly; ``run_spectrum`` would only choose it above
    DENSE_CUTOFF, where one pass takes tens of seconds.
    """

    name = "lowest_lanczos"
    SCALES = {
        "full": dict(radius=8.0, h=0.5, k=5),
        "toy": dict(radius=4.0, h=0.5, k=5),
    }

    def __init__(self, scale):
        self.p = self.SCALES[scale]

    def prepare(self, workdir):
        p = self.p
        return {"config": experiments.RunConfig(
            truncation_radius=p["radius"], truncation_shape="disk",
            fieldspec=fields.FieldSpec.radial_decay(1.0, 2.0, 2), h=p["h"],
            window=None, k=p["k"])}

    def run_pass(self, state, seed):
        cfg = state["config"]
        _, _, op = experiments.build_operator(cfg)
        try:
            res = eigensolve.eigs_lowest(op, cfg.k, tol=cfg.tol, seed=seed,
                                         method="lanczos", return_vectors=False)
        except eigensolve.NonConvergence as e:
            return {"error": str(e), "tol": cfg.tol}
        return {"eigenvalues": [float(x) for x in res.eigenvalues],
                "residuals": [float(x) for x in res.residuals],
                "certified": bool(res.certified),
                "converged": bool(res.info.converged), "n": op.n,
                "tol": cfg.tol}

    def reference(self, output):
        return {"n": output["n"], "eigenvalues": output["eigenvalues"]}

    def checks(self, output, ref):
        op = Op("lowest-k solve")
        if "error" in output:
            op.problems.append(output["error"])
            return [op]
        if output["n"] != ref["n"]:
            op.problems.append(f"n={output['n']}, reference {ref['n']}")
        if not (output["certified"] and output["converged"]):
            op.problems.append("result not certified")
        if not max(output["residuals"]) <= output["tol"]:
            op.problems.append(f"residual {max(output['residuals']):.2e}")
        _check_eigenvalues(op, output["eigenvalues"], ref["eigenvalues"])
        return [op]


# ── resolvent_probe: dense obstacle-insertion probes ───────────────────────


class ResolventProbe:
    """Shift, resolvent-difference SVD and boundary identity at two spacings.

    The identity gap of a single random field pair shrinks by less than
    SHRINK_MIN under refinement for about 0.6% of field seeds (15 of 2400 at
    the full size), so the shrink is taken on the gap summed over
    IDENTITY_FIELDS field pairs (smallest of 600 such shrinks: 1.97).
    """

    name = "resolvent_probe"
    SCALES = {
        "full": dict(radius=1.75, halfwidth=0.5, spacings=(0.25, 0.125)),
        "toy": dict(radius=2.0, halfwidth=0.5, spacings=(0.5, 0.25)),
    }
    GAMMA = 0.5

    def __init__(self, scale):
        self.p = self.SCALES[scale]

    def prepare(self, workdir):
        p = self.p
        return {"domain": geometry.DomainSpec(
            2, p["radius"], "box",
            geometry.BoxObstacle((0.0, 0.0), (p["halfwidth"],) * 2))}

    def run_pass(self, state, seed):
        field_b = fields.FieldSpec.constant(1.0, 2)
        levels = []
        for h in self.p["spacings"]:
            g = geometry.build_grid(state["domain"], h)
            ph = fields.link_phases(g, field_b)
            full = assembly.assemble(g, ph, "full")
            split = assembly.direct_sum(
                assembly.assemble(g, ph, "omega", gamma=self.GAMMA),
                assembly.assemble(g, ph, "obstacle", gamma=self.GAMMA))
            levels.append((g, ph, full, split))
        _, _, full_c, split_c = levels[0]
        shift = probes.hermitian_shift(full_c, split_c)
        out = {"shift": shift, "sv": [], "identity": []}
        for g, ph, full, split in levels:
            sv, _ = probes.resolvent_difference_svd(full, split, shift=shift,
                                                    k=10)
            out["sv"].append([float(x) for x in sv])
        for g, ph, full, split in levels:
            err = lhs = 0.0
            for j in range(IDENTITY_FIELDS):
                r = probes.boundary_identity_check(
                    full, split, g, ph, self.GAMMA, shift=shift,
                    seed=seed + 2 * j)
                err += abs(r.lhs - r.rhs)
                lhs += abs(r.lhs)
            out["identity"].append(err / lhs)
        return out

    def reference(self, output):
        return {"shift": output["shift"], "sv": output["sv"]}

    def checks(self, output, ref):
        ops = []
        shift = Op("hermitian_shift")
        dev = abs(output["shift"] - ref["shift"]) / abs(ref["shift"])
        if not dev <= SHIFT_RTOL:
            shift.problems.append(f"shift {output['shift']!r}, reference "
                                  f"{ref['shift']!r}")
        ops.append(shift)
        for h, sv, sv_ref in zip(self.p["spacings"], output["sv"], ref["sv"]):
            op = Op(f"svd h={h}")
            sv, sv_ref = np.asarray(sv), np.asarray(sv_ref)
            if sv.shape != sv_ref.shape:
                op.problems.append(f"{sv.size} singular values, reference "
                                   f"{sv_ref.size}")
            else:
                dev = float(np.max(np.abs(sv - sv_ref) / sv_ref))
                if not dev <= SV_RTOL:
                    op.problems.append(f"singular values off by {dev:.2e} rel")
                if not sv[-1] / sv[0] <= SV_RATIO_MAX:
                    op.problems.append(f"sv10/sv1 = {sv[-1] / sv[0]:.3f}")
            ops.append(op)
        gaps = output["identity"]
        for h, gap in zip(self.p["spacings"], gaps):
            op = Op(f"identity h={h}")
            if not np.isfinite(gap):
                op.problems.append(f"identity gap {gap}")
            ops.append(op)
        shrink = gaps[0] / gaps[-1]
        if not shrink >= SHRINK_MIN:
            ops[-1].problems.append(f"identity gap shrink x{shrink:.2f} "
                                    f"(< {SHRINK_MIN})")
        return ops


# ── census_dense: ladder on the dense window path ──────────────────────────


class CensusDense:
    """Radius ladder whose rungs sit below DENSE_CUTOFF (full eigh)."""

    name = "census_dense"
    SCALES = {
        "full": dict(h=0.3, radii=(5.0, 5.5)),
        "toy": dict(h=0.5, radii=(3.0, 3.5)),
    }

    def __init__(self, scale):
        self.p = self.SCALES[scale]

    def prepare(self, workdir):
        p = self.p
        return {"config": experiments.RunConfig(
            truncation_radius=p["radii"][-1], truncation_shape="disk",
            obstacle=geometry.DiskObstacle((0.0, 0.0), 1.5), gamma=0.5,
            fieldspec=fields.FieldSpec.constant(1.0, 2), h=p["h"],
            window=(0.0, 6.0), delta=0.15)}

    def run_pass(self, state, seed):
        cfg = replace(state["config"], seed=seed)
        try:
            lad = experiments.run_ladder(cfg, self.p["radii"], jobs=1)
        except (eigensolve.NonConvergence, eigensolve.WindowOverflow) as e:
            return {"error": str(e)}
        return {"ladder": lad.as_dict(), "tol": cfg.tol}

    def reference(self, output):
        lad = output["ladder"]
        return {"rungs": [_rung_reference(r) for r in lad["rungs"]],
                "persistent": lad["ladder"]["persistent"]}

    def checks(self, output, ref):
        if "error" in output:
            return [Op(f"rung {i}", [output["error"]])
                    for i in range(len(ref["rungs"]))] + \
                   [Op("ladder", [output["error"]])]
        lad = output["ladder"]
        ops = [_check_rung(f"rung {i}", rung, rref, output["tol"])
               for i, (rung, rref) in enumerate(zip(lad["rungs"], ref["rungs"]))]
        ops.append(_check_ladder("ladder", lad["ladder"], ref))
        return ops


WORKLOADS = {w.name: w for w in (CensusSliced, LowestLanczos, ResolventProbe,
                                 CensusDense)}
