"""One workload in one fresh, single-threaded interpreter.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

Builds the workload's inputs from the seed (the set-up), then runs whole
passes over its operations while one more pass is expected to end within S
seconds, then runs the workload's untimed operations once.  The last line of
standard output is one JSON object: the monotonic time at which set-up
ended, every latency of every operation with the reference time after it,
the counts, the peak resident memory and, when tracing, the spans.
`run.py` starts this script and computes the metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def reference() -> int:
    """A fixed computation that calls no drawkit code but does what drawkit
    does most (tuples, sets, frozensets, sorting).  Timed after every
    operation, it measures the host's speed at that moment; `run.py` uses
    it to take the host's changing speed out of the latencies."""
    seen: set = set()
    out: list = []
    for i in range(300):
        e = (i % 13, (i * 7) % 13)
        if e not in seen:
            seen.add(e)
            out.append(tuple(sorted(e)))
        if len(frozenset(out[-3:])) > 2:
            out.sort()
    return len(out)


class Tracer:
    """Spans around the benchmark's calls into drawkit's layers.

    A span is ``[name, start, end, parent, op, failed]``: `parent` is the
    index of the enclosing span (None for an operation's root span) and `op`
    the operation id ("setup" during set-up).  Spans stay in memory until
    the run ends.  When tracing is off, `call` only forwards.
    """

    def __init__(self, on: bool):
        self.on = on
        self.spans: list = []
        self.counts: Counter = Counter()
        self.wrong_outputs: Counter = Counter()
        self.setup_failures: list = []
        self._stack: list = []
        self._op = "setup"

    def call(self, name, fn, *args):
        if not self.on:
            return fn(*args)
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
                self._op, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args)
        except BaseException:
            span[5] = True
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def operation(self, op_id: str, fn):
        self._op = op_id
        try:
            return self.call("op", fn)
        finally:
            self._op = "setup"

    def count(self, name: str, k: int):
        self.counts[name] += k

    def wrong(self, layer: str):
        """A check found a wrong output of `layer`."""
        self.wrong_outputs[layer] += 1


def _load_workloads():
    """Import drawkit from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import drawkit

    where = Path(drawkit.__file__).resolve().parent
    if where != SRC / "drawkit":
        raise SystemExit(f"drawkit imported from {where}, expected {SRC / 'drawkit'}")
    from drawkit.errors import DrawkitError
    from workloads import WORKLOADS, WrongOutput

    return WORKLOADS, DrawkitError, WrongOutput


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    workloads, library_error, wrong_output = _load_workloads()
    tracer = Tracer(bool(args.trace))
    ops, once = workloads[args.workload](args.seed, tracer)
    out = {"ready": time.monotonic()}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    latencies = [[] for _ in ops]
    # one entry per timed run, in the order they ran: the start of the run
    # and the time of the reference computation right after it
    starts, reference_s = [], []
    failed = wrong = passes = 0
    failed_ops = set()
    messages = list(tracer.setup_failures)

    def run(op_id, label, op):
        """One operation: its seconds, and whether it succeeded."""
        nonlocal failed, wrong
        t = time.perf_counter()
        try:
            tracer.operation(op_id, op)
        except (library_error, wrong_output) as exc:
            failed += 1
            wrong += isinstance(exc, wrong_output)
            messages.append(f"{label}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t, False
        return time.perf_counter() - t, True

    start = time.perf_counter()
    # whole passes, so every run weighs the operations alike; another pass
    # starts only when one more is expected to end within the time
    while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= args.seconds:
        for i, (label, op) in enumerate(ops):
            starts.append(time.perf_counter() - start)
            seconds, ok = run(f"{passes}:{i}", label, op)
            latencies[i].append(seconds)
            t = time.perf_counter()
            reference()
            reference_s.append(time.perf_counter() - t)
            if not ok:
                failed_ops.add(i)
        passes += 1
    timed_s = time.perf_counter() - start
    once_s = {label: run(f"once:{label}", label, op)[0] for label, op in once}
    out.update(
        timed_s=timed_s,
        passes=passes,
        attempted=passes * len(ops) + len(once) + len(tracer.setup_failures),
        failed=failed + len(tracer.setup_failures),
        failed_ops=len(failed_ops),
        once_s=once_s,
        wrong=wrong,
        failures=messages[:10],
        latency_s=latencies,
        starts=starts,
        reference_s=reference_s,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer.on:
        out.update(spans=tracer.spans, counts=tracer.counts, wrong_outputs=tracer.wrong_outputs)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
