"""magspec benchmark: one workload, closed loop, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of the workload back to back (one client, jobs=1) for about S
seconds, checks every pass against the references pinned in
references.json, and prints the metrics, one per line with its unit, and
as the last line one JSON object {correct, attempted, failed, metrics}.
--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics plus the tracing overhead.
Per-pass samples, the run record and (traced) the spans are written once at
the end to perfbench/out/.  Exit code 0 only when every check passed.

magspec is not installed: it is imported from src/ next to this directory.
"""

import os
import sys

# fixed before numpy is first imported, here and in the set-up children
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import statistics
import subprocess
import time

from tracing import UNITS, Tracer, pass_metrics, patched

# numpy and scipy are imported only after set-up is timed: a fresh
# `import magspec` pays for loading them, and setup_s must include that.

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCES = os.path.join(HERE, "references.json")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "toy"), default="full",
                   help="toy: seconds-long inputs for the harness tests")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _import_workloads():
    if not os.path.isdir(os.path.join(SRC, "magspec")):
        raise SystemExit(f"error: magspec sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads
    return workloads


def _setup_probe(args):
    """Child process: seconds from `import magspec` to a finished warm-up."""
    t0 = time.perf_counter()
    wl = _import_workloads().WORKLOADS[args.workload]
    work = os.path.join(OUT, "work", f"{args.workload}-setup")
    wl(args.scale).prepare(work)
    toy = wl("toy")
    toy.run_pass(toy.prepare(os.path.join(work, "toy")), args.seed)
    print(repr(time.perf_counter() - t0))
    return 0


def _setup_seconds(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale]
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# ── run record ─────────────────────────────────────────────────────────────


def _steal_ticks():
    """Cumulative CPU-steal ticks of the machine (None where unreadable)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def _record(args):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "commit": _git_commit(),
        "clock_ticks_per_s": os.sysconf("SC_CLK_TCK"),
    }


# ── the timed loop ─────────────────────────────────────────────────────────


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def measure(wl, state, ref, seed, seconds, trace):
    """Closed loop of passes; returns (samples, ops, tracer)."""
    import numpy as np
    rng = np.random.default_rng(seed)
    tracer = Tracer() if trace else None
    samples, ops = [], []
    t_start = time.perf_counter()
    while True:
        i = len(samples)
        pass_seed = int(rng.integers(2**31))
        traced = bool(trace) and i % 2 == 1
        c0 = time.process_time()
        t0 = time.perf_counter()
        if traced:
            with patched(tracer), tracer.pass_span(i):
                out = wl.run_pass(state, pass_seed)
        else:
            out = wl.run_pass(state, pass_seed)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        samples.append({"pass": i, "seed": pass_seed, "traced": traced,
                        "wall_s": wall, "cpu_s": cpu})
        ops.extend((i, op) for op in wl.checks(out, ref))
        typical = statistics.median(s["wall_s"] for s in samples)
        done = time.perf_counter() - t_start + typical > seconds
        if done and (not trace or len(samples) >= 2):
            return samples, ops, tracer


def _layer_metrics(tracer, samples):
    per_pass, shares = [], []
    for s in samples:
        if not s["traced"]:
            continue
        spans = [sp for sp in tracer.spans if sp.trace == s["pass"]]
        m, share = pass_metrics(spans, tracer.counters[s["pass"]])
        per_pass.append(m)
        shares.append(share)
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in UNITS
               if k != "trace.overhead_s"}
    walls = {t: statistics.median(s["wall_s"] for s in samples
                                  if s["traced"] == t) for t in (False, True)}
    metrics["trace.overhead_s"] = walls[True] - walls[False]
    layers = sorted({k for sh in shares for k in sh})
    share = {k: statistics.median(sh.get(k, 0.0) for sh in shares)
             for k in layers}
    return metrics, share


def main(argv=None):
    args = _parse(argv)
    if args.setup_probe:
        return _setup_probe(args)
    wmod = _import_workloads()
    if args.workload not in wmod.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose "
                         f"from {', '.join(wmod.WORKLOADS)}")
    with open(REFERENCES, encoding="utf-8") as fh:
        ref = json.load(fh)[args.scale][args.workload]

    steal0 = _steal_ticks()
    setup = _setup_seconds(args)
    wl = wmod.WORKLOADS[args.workload](args.scale)
    work = os.path.join(OUT, "work", args.workload)
    state = wl.prepare(work)
    toy = wmod.WORKLOADS[args.workload]("toy")
    toy.run_pass(toy.prepare(os.path.join(work, "toy")), args.seed)

    samples, ops, tracer = measure(wl, state, ref, args.seed, args.seconds,
                                   args.trace)
    steal1 = _steal_ticks()
    record = _record(args)
    record["steal_ticks"] = (None if steal0 is None or steal1 is None
                             else steal1 - steal0)

    attempted = len(ops)
    failed = sum(1 for _, op in ops if not op.ok)
    for i, op in ops:
        for problem in op.problems:
            print(f"FAILED pass {i} {op.label}: {problem}", file=sys.stderr)

    plain = [s for s in samples if not s["traced"]]
    walls = [s["wall_s"] for s in plain]
    cpus = [s["cpu_s"] for s in plain]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(samples)} "
          f"({sum(s['traced'] for s in samples)} traced)  blas threads "
          f"{BLAS_THREADS}  steal ticks {record['steal_ticks']}")
    print(f"wall_s       median {statistics.median(walls):.4f} s  quartiles "
          "%.4f %.4f  n=%d" % (*_quartiles(walls), len(walls)))
    print(f"cpu_s        median {statistics.median(cpus):.4f} s  quartiles "
          "%.4f %.4f  n=%d" % (*_quartiles(cpus), len(cpus)))
    print(f"setup_s      median {statistics.median(setup):.4f} s  "
          f"n={len(setup)}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak_rss_mb  {peak:.1f} MB")
    print(f"fail_rate    {failed / attempted:.4f}  ({failed} failed / "
          f"{attempted} attempted operations)")

    result = {"record": record, "samples": samples, "setup_s": setup,
              "failures": [[i, op.label, op.problems] for i, op in ops
                           if not op.ok]}
    if args.trace:
        values, share = _layer_metrics(tracer, samples)
        for k, v in share.items():
            print(f"share        {k:<12} {v:.4f} of traced pass wall time")
        for k, v in values.items():
            print(f"{k:<38} {v:.6g} {UNITS[k]}")
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        result.update(layer_share=share, spans=tracer.as_dicts())
    else:
        values = {"wall_s": statistics.median(walls),
                  "cpu_s": statistics.median(cpus),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": peak}
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
    result["metrics"] = metrics
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace"
                             f"{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(f"record {json.dumps(record, sort_keys=True)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
