"""Smoke tests of the benchmark harness at toy sizes.

    python3 -m pytest -q perfbench

They cover the command's output contract, the correctness gate (it accepts
the pinned results on a fresh seed and rejects a perturbed reference) and the
traced run (spans, self-time accounting, patched functions restored).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing

workloads = run._import_workloads()

REFS = json.load(open(run.REFERENCES, encoding="utf-8"))["toy"]
BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def _command(cwd, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc, proc.stdout.strip().splitlines()


def _toy_output(name, seed):
    wl = workloads.WORKLOADS[name]("toy")
    state = wl.prepare(os.path.join(run.OUT, "work", f"test-{name}"))
    return wl, wl.run_pass(state, seed)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_accepts_pinned_results_on_another_seed(name):
    wl, out = _toy_output(name, seed=11)
    ops = wl.checks(out, REFS[name])
    assert ops and all(op.ok for op in ops), [op for op in ops if not op.ok]


def _perturb(ref):
    """Move the first eigenvalue or singular value found by 1e-5."""
    if isinstance(ref, dict):
        for key in ("eigenvalues", "sv", "rungs", "side_a"):
            if key in ref:
                return _perturb(ref[key])
    if isinstance(ref[0], list):
        return _perturb(ref[0])
    if isinstance(ref[0], dict):
        return _perturb(ref[0])
    ref[0] += 1e-5


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_rejects_a_perturbed_reference(name):
    wl, out = _toy_output(name, seed=11)
    ref = json.loads(json.dumps(REFS[name]))
    _perturb(ref)
    assert sum(not op.ok for op in wl.checks(out, ref)) == 1


def test_command_prints_end_to_end_metrics():
    proc, lines = _command(run.ROOT, "--workload", "census_dense", "--seed",
                           "2", "--seconds", "1", "--trace", "0",
                           "--scale", "toy")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 3
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert any(line.startswith("fail_rate") for line in lines)


def test_command_exits_nonzero_when_a_check_fails(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "src", "magspec"),
                    tmp_path / "src" / "magspec")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    refs_path = tmp_path / "perfbench" / "references.json"
    refs = json.loads(refs_path.read_text())
    refs["toy"]["lowest_lanczos"]["eigenvalues"][0] += 1e-5
    refs_path.write_text(json.dumps(refs))
    proc, lines = _command(tmp_path, "--workload", "lowest_lanczos", "--seed",
                           "2", "--seconds", "0.5", "--trace", "0",
                           "--scale", "toy")
    assert proc.returncode == 1
    last = json.loads(lines[-1])
    assert not last["correct"] and last["failed"] == last["attempted"]


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, lines = _command(tmp_path, "--workload", "census_dense", "--seed",
                           "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def _layer_attributes():
    mods = tracing._magspec_modules()
    return {(m.__name__, f): getattr(m, f, None)
            for m in mods for _, f, _ in tracing.LAYER_FUNCTIONS}


def test_traced_run_restores_patched_functions_and_accounts_time():
    before = _layer_attributes()
    wl = workloads.WORKLOADS["census_sliced"]("toy")
    state = wl.prepare(os.path.join(run.OUT, "work", "test-trace"))
    samples, ops, tracer = run.measure(wl, state, REFS["census_sliced"], 5,
                                       0.01, trace=True)
    assert _layer_attributes() == before
    assert all(a is before[k] for k, a in _layer_attributes().items())
    assert all(op.ok for _, op in ops)

    traced = [s for s in samples if s["traced"]]
    assert traced and len(samples) >= 2
    names = {s.name for s in tracer.spans}
    assert {"pass", "cli.main", "experiments.ladder_compare",
            "experiments.run_spectrum", "eigensolve.eigs_window",
            "spectra.cluster_report", "geometry.build_grid"} <= names
    for s in traced:
        spans = [sp for sp in tracer.spans if sp.trace == s["pass"]]
        own = tracing.self_times(spans)
        root = next(sp for sp in spans if sp.parent < 0)
        assert sum(own.values()) == pytest.approx(root.end - root.start,
                                                  abs=1e-9)
        assert all(t >= -1e-9 for t in own.values())
        m, share = tracing.pass_metrics(spans, tracer.counters[s["pass"]])
        assert set(m) == set(tracing.UNITS) - {"trace.overhead_s"}
        assert sum(share.values()) == pytest.approx(1.0)
        assert m["experiments.rungs"] == 4 and m["cli.bytes_written"] > 0


def test_patch_reaches_every_module_that_imported_a_function():
    from magspec import eigensolve, experiments, probes
    with tracing.patched(tracing.Tracer()) as done:
        where = {(m.__name__, f) for m, f, _ in done}
        assert {("magspec.experiments", "eigs_lowest"),
                ("magspec.probes", "eigs_lowest"),
                ("magspec.cli", "ladder_compare"),
                ("magspec.experiments", "run_spectrum"),
                ("magspec.experiments", "run_ladder"),
                ("magspec.eigensolve", "inertia_count")} <= where
        assert experiments.eigs_lowest is probes.eigs_lowest
        assert probes.eigs_lowest is eigensolve.eigs_lowest
        assert hasattr(eigensolve.eigs_lowest, "__wrapped__")
    assert all(getattr(m, f) is orig for m, f, orig in done)


def test_traced_command_writes_layer_metrics_and_spans():
    proc, lines = _command(run.ROOT, "--workload", "resolvent_probe", "--seed",
                           "4", "--seconds", "1", "--trace", "1",
                           "--scale", "toy")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(lines[-1])
    assert {k: v["unit"] for k, v in last["metrics"].items()} == tracing.UNITS
    assert last["metrics"]["probes.resolvent_difference_svd.s"]["value"] > 0
    with open(os.path.join(run.OUT, "resolvent_probe-seed4-trace1.json"),
              encoding="utf-8") as fh:
        written = json.load(fh)
    assert written["spans"] and set(written["spans"][0]) == {
        "id", "parent", "trace", "name", "start", "end", "error"}
    assert written["record"]["blas_threads"] == run.BLAS_THREADS


@pytest.mark.skipif(not os.path.exists(BENCHMARK),
                    reason="no BENCHMARK.json beside the harness")
def test_benchmark_json_matches_the_harness():
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.UNITS
