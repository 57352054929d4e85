"""Benchmark of the `onesided` package: one workload per invocation.

    python3 perfbench/run.py --workload mixture_k2 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client runs operations back to back (a closed loop) in
this process for ``--seconds``, and at least until every input set has
run once and the first has repeated.  Set-up is timed separately in
fresh interpreters.  With ``--trace 0`` the end-to-end metrics are
reported; with ``--trace 1`` traced and untraced operations alternate
and the per-layer metrics are reported.  Human-readable lines come
first; the last line of standard output is the JSON result.  Outputs,
results and spans go under ``.bench_out/``.  Exit status: 0 when every
check passed, 1 when one failed, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5

# One client on one thread, like workers=1: a second BLAS thread only spins
# beside the main one on a small machine.  Set before numpy loads; set-up
# probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, variant  # noqa: E402

_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import workloads
workloads.WORKLOADS[{name!r}].setup({seed!r}, __import__("pathlib").Path({run_dir!r}))
print(time.perf_counter() - t0)
"""


def probe_setup(name: str, seed: int, run_dir: Path) -> float:
    """Seconds from a fresh interpreter's first line to the end of set-up."""
    code = _PROBE.format(src=str(SRC), here=str(HERE), name=name, seed=seed, run_dir=str(run_dir))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "onesided" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'onesided'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    units = declared_metrics(trace)
    run_dir = OUT / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"

    try:
        setup_times = [probe_setup(workload.name, args.seed, run_dir)]
    except subprocess.SubprocessError as exc:
        print(f"error: set-up failed: {exc}\n{getattr(exc, 'stderr', '')}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    state = workload.setup(args.seed, run_dir)
    import onesided

    if Path(onesided.__file__).resolve().parent != SRC / "onesided":
        print(f"error: imported onesided from {onesided.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = Tracer() if trace else None
    walls = {False: [], True: []}
    firsts: dict = {}
    attempted = failed = 0
    problems: list = []
    start = time.perf_counter()
    deadline = start + args.seconds
    # Later set-up probes are spread over the run, so that setup_s sees the
    # machine as the operations do rather than in one burst.
    probe_every = args.seconds / (SETUP_PROBES - 1)
    i = 0
    while i <= workload.distinct or time.perf_counter() < deadline:
        j = variant(i, workload.distinct)
        traced = trace and i % 2 == 1
        attempted += 1
        try:
            t0 = time.perf_counter()
            if traced:
                with tracer.recording(f"{workload.name}-seed{args.seed}-op{i}"):
                    result = workload.run(state, j)
            else:
                result = workload.run(state, j)
            wall = time.perf_counter() - t0
            checked = workload.check(state, j, result)
        except Exception:
            failed += 1
            problems.append(f"op {i}: raised\n{traceback.format_exc()}")
            i += 1
            continue
        walls[traced].append(wall)
        first = firsts.setdefault(j, checked)
        if checked.fingerprint != first.fingerprint:
            checked.problems.append(f"outputs differ from the first run of input set {j}")
        if checked.problems:
            failed += 1
            problems.extend(f"op {i}: {p}" for p in checked.problems)
        i += 1
        if len(setup_times) < SETUP_PROBES - 1 and time.perf_counter() - start >= probe_every * len(setup_times):
            setup_times.append(probe_setup(workload.name, args.seed, run_dir))
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(probe_setup(workload.name, args.seed, run_dir))
    # read before the run-level checks, whose reference solutions are not workload
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if len(firsts) == workload.distinct:
        final = workload.final_checks(state, [firsts[j] for j in range(workload.distinct)])
    else:
        final = [f"only {len(firsts)} of {workload.distinct} input sets completed"]
    attempted += 1
    failed += bool(final)
    problems.extend(final)

    untraced = walls[False]
    values = {"setup_s": statistics.median(setup_times), "peak_rss_mb": peak_rss_mb}
    if untraced:
        # The mean, not the median: machine speed here switches between two
        # levels for minutes at a time, and the median of a run jumps between
        # them while the mean moves with the share of time spent in each.
        values["wall_s"] = statistics.fmean(untraced)
    if len(firsts) == workload.distinct:
        for key in ("test_coverage", "test_error"):
            values[key] = statistics.fmean(firsts[j].quality[key] for j in range(workload.distinct))
    if trace and walls[True]:
        values.update(tracer.layer_metrics(walls[True]))
        values["trace_overhead_frac"] = statistics.fmean(walls[True]) / values["wall_s"] - 1.0

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params,
        "machine": machine(),
        "setup_s_samples": setup_times,
        "wall_s_samples": untraced,
        "traced_wall_s_samples": walls[True],
        "untraced_targets": tracer.missing if trace else [],
        "failed_frac": failed / attempted,
        "problems": problems,
        "values": values,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(info, indent=2) + "\n")
    if trace:
        tracer.write(OUT / f"spans-{stem}.json")
    shutil.rmtree(run_dir, ignore_errors=True)

    for p in problems:
        print(f"# FAILED {p}", file=sys.stderr)
    m = info["machine"]
    print(f"# {workload.name} seed={args.seed} trace={args.trace} params={json.dumps(workload.params)}")
    print(
        f"# machine nproc={m['nproc']} python={m['python']} numpy={m['numpy']} blas={m['blas']} "
        f"threads={m['blas_threads']} commit={m['commit']}"
    )
    if untraced:
        print(f"# wall_s over {len(untraced)} operations: mean {values['wall_s']:.4f} "
              f"median {statistics.median(untraced):.4f} min {min(untraced):.4f} max {max(untraced):.4f}")
    print(f"# failed_frac {info['failed_frac']:.4f} ratio ({failed} of {attempted} attempted)")
    for name, unit in units.items():
        print(f"# {name:32s} {values.get(name, float('nan')):.6g} {unit}")
    ok = failed == 0 and all(name in values for name in units)
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
