"""One workload in one process, started by ``perfbench/run.py``.

    python3 -m perfbench.child setup <workload> <seed>
        Fresh-interpreter set-up: time ``import wfomc`` plus parsing and
        encoding the workload's first input; prints the seconds.
    python3 -m perfbench.child run <workload> <seed> <seconds> <trace>
        Closed loop, one client, one thread. Prints one JSON result line.

With trace 0 the loop runs untraced for ``seconds`` and reports the
end-to-end metrics, with op times in units of a reference loop timed
between ops (see ``REF_ITERATIONS``). With trace 1 it runs every op twice, once untraced and
once traced, in alternating order. The per-layer metrics come from the
traced runs; the ratio of traced to untraced op time gives the tracing
overhead.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
MAX_REPORTED_ERRORS = 5

# The machine the benchmark was tuned on (a 2-vCPU VM) switches between two
# speeds about 1.5x apart, for seconds to minutes at a time, and every op
# slows with it: wall-clock medians of 30 s runs spread 25-40% between runs.
# A fixed pure-Python loop that allocates tuples, strings and a dict (2-4 ms
# there) slows by a similar factor; an arithmetic-only loop tracked
# certify's slow-downs less well. So the gated op metrics divide each
# op's time by the median of the REF_WINDOW reference samples taken nearest
# to its start, half before and half after. A sample is taken between ops
# once REF_EVERY_S has passed.
REF_ITERATIONS = 6_000
REF_EVERY_S = 0.05
REF_WINDOW = 4


def _import_checkout_wfomc():
    """Import wfomc from this checkout's src/, never from anywhere else."""
    if not (SRC / "wfomc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no wfomc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wfomc

    if Path(wfomc.__file__).resolve().parent != (SRC / "wfomc").resolve():
        raise SystemExit(f"perfbench: imported wfomc from {wfomc.__file__}, not {SRC}")
    return wfomc


def setup_probe(name: str, seed: int) -> float:
    _import_checkout_wfomc()
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    wl.setup(wl.input(0))
    return time.perf_counter() - T0


class Loop:
    """Runs ops in order, times each, and checks each answer."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def one(self, i: int, call) -> float:
        inp = self.wl.input(i)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            answer = call(i, self.wl.op, inp)
        except Exception:  # an op that raises is a failed op; keep measuring
            dt = time.perf_counter() - t0
            self._fail(f"op {i}: {traceback.format_exc()}")
            return dt
        dt = time.perf_counter() - t0
        if not self.wl.check(inp, answer):
            self._fail(f"op {i}: wrong answer {answer!r:.300} for input {inp!r:.300}")
        return dt

    def _fail(self, msg: str):
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(msg)
            print(f"perfbench: {msg}", file=sys.stderr)

    def timed(self, seconds: float) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
        """(start, time) of ops 0, 1, ... started within ``seconds``, and
        (start, time) of the reference samples taken around them."""
        ops: list[tuple[float, float]] = []
        start = time.perf_counter()
        refs = [_time_reference(start)]
        while (t := time.perf_counter() - start) < seconds:
            ops.append((t, self.one(len(ops), _untraced)))
            if time.perf_counter() - start - refs[-1][0] >= REF_EVERY_S:
                refs.append(_time_reference(start))
        refs.append(_time_reference(start))
        return ops, refs

    def paired(self, seconds: float, tracer) -> tuple[list[float], list[float]]:
        """Untraced and traced op times of ops 0, 1, ... started within
        ``seconds``; each op runs both ways, the order alternating."""
        plain: list[float] = []
        traced: list[float] = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            i = len(plain)
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    with tracer:
                        traced.append(self.one(i, tracer.run_op))
                else:
                    plain.append(self.one(i, _untraced))
        return plain, traced


def _untraced(i: int, op, inp):
    return op(inp)


def _reference_loop() -> int:
    d = {}
    for i in range(REF_ITERATIONS):
        t = (i, i % 13, str(i))
        d[t] = [i, t]
    return len(d)


def _time_reference(start: float) -> tuple[float, float]:
    # The loop leaves no garbage; with the collector off it cannot be billed
    # for collecting the ops' garbage either.
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_loop()
        dt = time.perf_counter() - t0
    finally:
        gc.enable()
    return t0 - start, dt


def in_reference_units(ops, refs) -> list[float]:
    """Each op's time over the median time of the REF_WINDOW reference
    samples nearest to its start."""
    starts = [t for t, _ in refs]
    half = REF_WINDOW // 2
    costs = []
    for t, dt in ops:
        j = bisect.bisect_right(starts, t)
        costs.append(dt / statistics.median(d for _, d in refs[max(0, j - half):j + half]))
    return costs


def _p90(xs: list[float]) -> float:
    # Linear interpolation between order statistics (numpy's default): with
    # the ~10 ops of a problog_brute run the exclusive method returns the
    # single slowest op.
    return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else xs[0]


def end_to_end(ops, refs) -> tuple[dict, dict]:
    """The gated metrics, and the same op statistics in wall-clock seconds."""
    times = [dt for _, dt in ops]
    costs = in_reference_units(ops, refs)
    gated = {
        "op_ref.mean": sum(costs) / len(costs),
        "op_ref.p50": statistics.median(costs),
        "op_ref.p90": _p90(costs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = {
        "ops_per_s": len(times) / sum(times),
        "op_s.p50": statistics.median(times),
        "op_s.p90": _p90(times),
        "ref_s.p50": statistics.median(d for _, d in refs),
    }
    return gated, wall


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wfomc = _import_checkout_wfomc()
    from perfbench import tracing, workloads

    wl = workloads.WORKLOADS[name](seed)
    loop = Loop(wl)
    loop.one(0, _untraced)  # warm-up: lazy imports, first-call costs
    result = {"meta": {"backend": wfomc._kernels.backend(),
                       "numpy": wfomc._kernels.np.__version__}}
    if not trace:
        ops, refs = loop.timed(seconds)
        result["metrics"], result["wall"] = end_to_end(ops, refs)
        result["ops"] = len(ops)
        result["op_times"] = [dt for _, dt in ops]
    else:
        tracer = tracing.Tracer(extra_modules=(workloads,))
        plain, traced = loop.paired(seconds, tracer)
        tracer.check_fired(wl.uses)
        overhead = sum(traced) / sum(plain) - 1
        result["metrics"] = tracer.metrics(len(traced), overhead)
        result["ops"] = len(traced)
        result["layer_shares"] = tracer.layer_shares()
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"spans-{name}-s{seed}.json"
        trace_file.write_text(json.dumps(tracer.dump()))
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    result.update(attempted=loop.attempted, failed=loop.failed, errors=loop.errors)
    return result


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        print(json.dumps({"setup_s": setup_probe(name, seed)}))
        return 0
    seconds, trace = float(argv[3]), argv[4] == "1"
    print(json.dumps(run(name, seed, seconds, trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
