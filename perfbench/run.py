"""drawkit's benchmark: one seeded workload per run, measured from outside.

    python3 perfbench/run.py --workload {convert,paths,verify} --seed N --seconds S --trace 0|1

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output passed its checks.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("convert", "paths", "verify")

# Fresh interpreters whose set-up time feeds the median setup_s; the
# measured run is one of them.
SETUP_RUNS = 5
# The time of `worker.reference()` on the unloaded host the benchmark was
# tuned on (2-vCPU Intel Xeon VM, Python 3.11.7): latencies are reported at
# that speed.  The window is the span around each operation whose reference
# times give the host's speed at that moment.
REFERENCE_S = 0.23e-3
REFERENCE_WINDOW_S = 1.0
IMPORT_RUNS = 3
TIME_LIMIT_S = 170

# Every layer function the workloads call, as `<module>.<function>`.  The
# traced run reports `.calls`, `.busy_s` (self time) and `.failed` for each.
LAYER_FUNCTIONS = (
    "rotation.enumerate_realizable",
    "rotation.crossings_from_rotation",
    "generators.random_cylindrical",
    "generators.random_x_monotone",
    "generators.two_page",
    "generators.twisted_rotation",
    "generators.convex",
    "generators.hill",
    "wiring.extract_xbounded",
    "wiring.to_x_monotone",
    "wiring.crossing_set",
    "circular.crossing_set",
    "circular.is_strongly_c_monotone",
    "cylinder.crossing_set",
    "cylinder.normalize_winding",
    "cylinder.remove_double_spirals",
    "cylinder.to_circular_wiring",
    "cylinder.to_strongly_c_monotone",
    "cylinder.uncrossed_rim_edges",
    "hampath.path_x_monotone",
    "hampath.path_strong_c_mon",
    "hampath.path_cylindrical",
    "hampath.path_twisted",
    "hampath.cycle_via_uncrossed",
    "oracle.find_cf_ham_cycle",
    "oracle.verify_all_pairs",
    "serial.dump",
    "serial.load",
    "svg.render",
)
LAYER_COUNTS = ("rotation.enumerate_realizable.classes",)


class BenchError(Exception):
    pass


def _spawn(args: list, deadline: float) -> tuple[float, str]:
    """Run a fresh interpreter; return its start time and standard output."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited with {proc.returncode}:\n{err.strip()[-3000:]}")
    return start, out


def _worker(opts, seconds: float, trace: int, deadline: float, setup_only=False) -> dict:
    args = [str(WORKER), "--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start, out = _spawn(args + (["--setup-only"] if setup_only else []), deadline)
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - start
    return res


def _import_s(deadline: float) -> float:
    """Import time of drawkit.rotation in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import drawkit.rotation; print(time.perf_counter() - t)")
    return float(_spawn(["-c", code], deadline)[1].split()[-1])


def _latencies(res: dict) -> list:
    """Each operation's latency at the reference host speed: the median over
    its runs of the run's time scaled by REFERENCE_S over the median time of
    `worker.reference()` within REFERENCE_WINDOW_S of the run's start.

    A small shared host changes speed by up to half for seconds to minutes
    at a time, which moves raw times between runs by more than any bound a
    benchmark could keep.  The reference computation, timed after every
    operation, slows down with the host, so the ratio keeps the program's
    cost and drops most of the host's."""
    ops = res["latency_s"]
    n = len(ops)
    starts, ref = res["starts"], res["reference_s"]
    scaled = [[] for _ in ops]
    for k, t in enumerate(starts):  # run k is pass k // n of operation k % n
        lo = bisect.bisect_left(starts, t - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(starts, t + REFERENCE_WINDOW_S)
        speed = REFERENCE_S / statistics.median(ref[lo:hi])
        scaled[k % n].append(ops[k % n][k // n] * speed)
    return [statistics.median(x) for x in scaled]


def _ops_per_s(res: dict, lat: list) -> float:
    """Operations that never failed, per second of one pass at `lat`."""
    return (len(lat) - res["failed_ops"]) / sum(lat)


def end_to_end(opts, deadline: float):
    def setup_s():
        return _worker(opts, opts.seconds, 0, deadline, setup_only=True)["setup_s"]

    # set-ups before and after the measured worker, so that their median
    # spans the host's speed over the whole run, not one phase of it
    before = [setup_s() for _ in range(SETUP_RUNS // 2)]
    run = _worker(opts, opts.seconds, 0, deadline)
    setups = before + [run["setup_s"]] + [setup_s() for _ in range(SETUP_RUNS - 1 - len(before))]
    lat = sorted(_latencies(run))
    n = len(lat)
    tail_pct = 100 * (n - 10) / n  # the sample with exactly ten above it
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (_ops_per_s(run, lat), "ops/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_tail_ms": (1000 * lat[n - 11], "ms"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters",
        "ops_per_s": f"{n} operations at reference speed; the host ran at "
                     f"{REFERENCE_S / statistics.median(run['reference_s']):.2f} of it, and "
                     f"{run['attempted']} runs in {run['timed_s']:.2f} s of {run['passes']} "
                     f"passes are {run['attempted'] / run['timed_s']:.4g}/s",
        "op_p50_ms": f"{n} operations, each the median of its {run['passes']} runs, "
                     f"at reference speed",
        "op_tail_ms": f"p{tail_pct:.1f} of {n} operations, 10 above it",
        "peak_rss_mb": "ru_maxrss of the measured process",
    }
    return [run], metrics, notes


def self_times(spans: list):
    """Per name: calls, self time (duration minus child spans) and failures."""
    busy = defaultdict(float)
    calls, failed = Counter(), Counter()
    for name, start, end, parent, _op, bad in spans:
        busy[name] += end - start
        calls[name] += 1
        failed[name] += bad
        if parent is not None:
            busy[spans[parent][0]] -= end - start
    return calls, busy, failed


def per_layer(opts, deadline: float):
    half = opts.seconds / 2
    plain = _worker(opts, half, 0, deadline)
    traced = _worker(opts, half, 1, deadline)
    calls, busy, failed = self_times(traced["spans"])
    unknown = set(calls) - set(LAYER_FUNCTIONS) - {"op"}
    if unknown:
        raise BenchError(f"spans outside LAYER_FUNCTIONS: {sorted(unknown)}")
    failed.update(traced["wrong_outputs"])
    metrics = {}
    for name in LAYER_FUNCTIONS:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.busy_s"] = (busy[name], "s")
        metrics[f"{name}.failed"] = (failed[name], "count")
    for name in LAYER_COUNTS:
        metrics[name] = (traced["counts"].get(name, 0), "count")
    imports = [_import_s(deadline) for _ in range(IMPORT_RUNS)]
    metrics["rotation.import_s"] = (statistics.median(imports), "s")
    untraced = _ops_per_s(plain, _latencies(plain))
    with_trace = _ops_per_s(traced, _latencies(traced))
    metrics["trace.overhead_pct"] = (100 * (untraced - with_trace) / untraced, "%")
    notes = {
        "rotation.import_s": f"median of {IMPORT_RUNS} fresh interpreters",
        "trace.overhead_pct": f"ops_per_s {untraced:.4g} untraced vs {with_trace:.4g} traced, "
                              f"{half:g} s each",
    }
    return [plain, traced], metrics, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    opts = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    # exit through `finally`, which stops a running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "drawkit" / "__init__.py").is_file():
        print(f"perfbench: no drawkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    record = {"workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
              "trace": opts.trace, "nproc": os.cpu_count(),
              "python": platform.python_version()}
    print("run " + json.dumps(record))
    try:
        runs, metrics, notes = (per_layer if opts.trace else end_to_end)(opts, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    wrong = sum(r["wrong"] for r in runs)
    for r in runs:
        for msg in r["failures"]:
            print(f"FAILED {msg}")
        for label, seconds in r["once_s"].items():
            print(f"untimed {label} {seconds:.4g} s  (run once after the timed passes)")
    print(f"failed_ratio {failed / attempted:.4g} ({failed} of {attempted} operations, "
          f"{wrong} with a wrong output)")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
