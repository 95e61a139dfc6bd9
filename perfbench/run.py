"""Layered benchmark of the wfomc counting pipeline.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``all`` (the default) runs the workloads listed in ``BENCHMARK.json``, and
``--seconds`` defaults to its ``run_seconds``. problog_brute is not listed
there and runs only when named (see ``perfbench/workloads.py``).

Run from the repository root; it measures the sources under ``src/``. Each
workload runs in its own child process: a closed loop with one client and
one thread. Every answer is checked against an oracle that does not use the
counting pipeline (see ``perfbench/workloads.py``).

With ``--trace 0`` it prints the end-to-end metrics: ``op_ref.mean``,
``op_ref.p50`` and ``op_ref.p90`` (op time in units of a reference loop timed
between ops, which cancels the host's speed swings; see
``perfbench/child.py``), ``setup_s`` (median over fresh interpreters) and
``peak_rss_mb``. The summary line adds ``fail_share`` and the same op
statistics in wall-clock seconds (``ops_per_s``, ``op_s.p50``, ``op_s.p90``).
With ``--trace 1`` it prints the per-layer metrics of ``perfbench/tracing.py``
and each layer's share of op time, and writes the spans under
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0 only
if every answer was right.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("certify", "smokers_dpll", "mln_query", "problog_brute")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED = tuple(w["name"] for w in BENCHMARK["workloads"])
SETUP_SAMPLES = 8
SETUP_TIMEOUT_S = 30
RUN_DEADLINE_S = 170  # one workload's run must end within 180 s

E2E_UNITS = {
    "op_ref.mean": "ref",
    "op_ref.p50": "ref",
    "op_ref.p90": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
WALL_UNITS = {"ops_per_s": "1/s", "op_s.p50": "s", "op_s.p90": "s", "ref_s.p50": "s"}


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the child imports wfomc from this checkout only
    # One thread, and string hashing that does not change set orders per run.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NUMBA_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def _child(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.child", *args],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, timeout=timeout, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench child {args} exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def setup_samples(name: str, seed: int, k: int) -> list[float]:
    """Set-up times of ``k`` fresh interpreters."""
    args = ["setup", name, str(seed)]
    return [_child(args, SETUP_TIMEOUT_S)["setup_s"] for _ in range(k)]


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metadata(seed: int) -> dict:
    """What a result depends on besides the code under test. Each child adds
    its numpy version and kernel backend; results from different backends
    are not comparable."""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """The child's result; with trace off, plus the median set-up time of
    fresh interpreters run half before and half after it, so that a slow
    spell of the machine does not set every sample."""
    started = time.perf_counter()
    run_args = ["run", name, str(seed), str(seconds), "1" if trace else "0"]
    if trace:
        return _child(run_args, RUN_DEADLINE_S - (time.perf_counter() - started))
    setup_samples(name, seed, 1)  # fills the bytecode cache
    before = setup_samples(name, seed, SETUP_SAMPLES // 2)
    res = _child(run_args, RUN_DEADLINE_S - (time.perf_counter() - started))
    after = setup_samples(name, seed, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    res["metrics"]["setup_s"] = statistics.median(before + after)
    res["setup_samples"] = before + after
    return res


def _summary(name: str, res: dict, units: dict) -> str:
    fail_share = res["failed"] / res["attempted"]
    parts = [f"{k}={v:.6g} {units[k]}" for k, v in res["metrics"].items()]
    parts += [f"{k}={v:.6g} {WALL_UNITS[k]}" for k, v in res.get("wall", {}).items()]
    return (f"{name}: " + "  ".join(parts)
            + f"  fail_share={fail_share:.6g} ({res['failed']}/{res['attempted']})"
            + f"  ops={res['ops']}  backend={res['meta']['backend']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "wfomc" / "__init__.py").is_file():
        print(f"perfbench: no wfomc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    from perfbench.tracing import PER_LAYER_UNITS  # needs no wfomc import

    names = GATED if args.workload == "all" else (args.workload,)
    units = PER_LAYER_UNITS if args.trace else E2E_UNITS
    meta = metadata(args.seed)
    results = {}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: {name}: {e}", file=sys.stderr)
            return 1
        res["meta"] = {**meta, **res["meta"]}
        results[name] = res
        print(_summary(name, res, units))
        for layer, share in res.get("layer_shares", ()):
            print(f"  {layer:22s} {share:7.1%} of op time")

    backends = {res["meta"]["backend"] for res in results.values()}
    if len(backends) > 1:
        print(f"perfbench: workloads ran on different kernel backends {backends}",
              file=sys.stderr)
        return 1
    print("meta " + json.dumps(next(iter(results.values()))["meta"]))

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    out_file.write_text(json.dumps(results, indent=1))

    def metric(name: str, key: str) -> str:
        return key if len(names) == 1 else f"{name}.{key}"

    final = {
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {metric(name, k): {"value": r["metrics"][k], "unit": units[k]}
                    for name, r in results.items() for k in units},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    raise SystemExit(main())
