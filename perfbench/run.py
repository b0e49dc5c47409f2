"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: campaign-direct,
query-tcp, ingest-embedded (README.md says why each exists).

The process pins itself to one CPU; every process it starts inherits
the affinity.  With ``--trace 0`` it starts the load process five
times in fresh interpreters: four stop once set up, the fifth runs the
measured schedule.  ``setup_s`` is the median of the five set-up
times, and the other end-to-end metrics come from the measured run.
With ``--trace 1`` it runs the schedule untraced, then traced, and
reports the per-layer metrics, the ceilings, their ratios and the
tracing overhead (traced minus untraced).

The last line of standard output is the result object; the line before
it is the host record.  The full record of the run, host included, is
written to ``.perfbench/last-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import REFERENCE_PROBE_S, ROOT, SRC, WORK, probe_s  # noqa: E402

WORKLOAD_NAMES = ("campaign-direct", "query-tcp", "ingest-embedded")
SETUP_TRIALS = 5
#: Whole-run budget; a load process still running then is killed.
DEADLINE_S = 170.0


class RunFailed(Exception):
    pass


def start_load(args, mode: str, trace: int, pinned: int, deadline: float) -> dict:
    """One load process; returns its result with ``setup_s`` filled in."""
    out = WORK / f"result-{os.getpid()}-{mode}-{trace}.json"
    out.unlink(missing_ok=True)
    argv = [
        sys.executable, str(HERE / "load.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--trace", str(trace),
        "--pinned-cpu", str(pinned), "--out", str(out),
    ]
    before = probe_s()
    started = time.monotonic()
    proc = subprocess.Popen(argv, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RunFailed(f"{mode} load process overran the {DEADLINE_S:g}s budget")
    if code != 0:
        raise RunFailed(f"{mode} load process exited with code {code}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    out.unlink()
    # Scaled to reference host speed like every other time (common.Recorder),
    # by the probes just before the start and just after ``ready``.
    result["setup_raw_s"] = result["ready"] - started
    result["setup_s"] = result["setup_raw_s"] * REFERENCE_PROBE_S / (
        (before + result["ready_probe_s"]) / 2)
    return result


def declared(section: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(args, pinned: int, deadline: float):
    trials = [start_load(args, "setup", 0, pinned, deadline)
              for _ in range(SETUP_TRIALS - 1)]
    run = start_load(args, "run", 0, pinned, deadline)
    trials.append(run)
    setups = [t["setup_s"] for t in trials]
    values = {"setup_s": statistics.median(setups), **run["end_to_end"]}
    metrics = {name: metric(values[name], unit) for name, unit in declared("end_to_end").items()}
    return [run], metrics, {
        "setup_trials_s": setups, "setup_trials_raw_s": [t["setup_raw_s"] for t in trials],
    }


def traced(args, pinned: int, deadline: float):
    plain = start_load(args, "run", 0, pinned, deadline)
    run = start_load(args, "run", 1, pinned, deadline)
    layers = dict(run["layers"])
    base, with_trace = plain["end_to_end"], run["end_to_end"]
    for name in ("ops_per_s", "jobs_per_s", "load_p50_ms"):
        layers[f"trace.overhead_{name}"] = with_trace[name] - base[name]
    # Ratios against the ceilings use the untraced end-to-end figures.
    layers["load_over_ceiling"] = base["load_p50_ms"] * 1e3 / layers["ceiling.repo_load_us"]
    rows_per_s = plain["save_many_rows"] / (base["save_many_p50_ms"] / 1e3)
    layers["save_many_over_ceiling"] = layers["ceiling.executemany_rows_per_s"] / rows_per_s
    layers["server.start_over_ceiling"] = (
        layers["server.start_s"] / layers["ceiling.import_numpy_s"]
    )
    units = declared("per_layer")
    undeclared = sorted(set(layers) - set(units))
    if undeclared:
        raise RunFailed(f"layer metrics missing from BENCHMARK.json: {undeclared}")
    # A layer the workload does not run reads 0.
    metrics = {name: metric(layers.get(name, 0.0), unit) for name, unit in units.items()}
    return [plain, run], metrics, {"untraced_end_to_end": base}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # One CPU for the load process and everything it starts: cross-CPU
    # wake-ups were the largest source of run-to-run spread.
    pinned = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {pinned})
    WORK.mkdir(exist_ok=True)
    try:
        runs, metrics, extra = (traced if args.trace else untraced)(args, pinned, deadline)
    except RunFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        for stale in WORK.glob(f"{args.workload}-{args.seed}-*"):
            shutil.rmtree(stale, ignore_errors=True)
    measured = runs[-1]
    errors = [e for r in runs for e in r["errors"]]
    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "result": result, "errors": errors,
        "samples": [r["samples"] for r in runs], "jobs": [r["jobs"] for r in runs],
        "raw_p50_ms": [r["raw_p50_ms"] for r in runs],
        "scales": [r["scales"] for r in runs],
        "host": measured["host"], **extra,
    }
    with open(WORK / f"last-{args.workload}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"host": measured["host"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
