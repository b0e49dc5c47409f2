"""The load process: one workload in a fresh interpreter.

    python3 perfbench/load.py --workload NAME --seed N --seconds S \
        --mode setup|run --trace 0|1 --out RESULT.json

``run.py`` starts this process and times ``setup_s`` from just before
the start to the ``ready`` instant written here (``time.monotonic`` is
one clock for every process on the host).  ``--mode setup`` stops at
``ready``; ``--mode run`` goes on to the measured schedule, the checks
and, when traced, the layer metrics and ceilings.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

from common import SRC, WORK, host_record, probe_s, probed

sys.path.insert(0, str(SRC))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pinned-cpu", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, args.seconds, workdir)
    workload.tracer = tracer
    result: dict[str, object] = {}
    try:
        workload.setup()
        result["ready"] = time.monotonic()
        result["ready_probe_s"] = probe_s()
        if args.mode == "setup":
            workload.close()
        else:
            result.update(measure(workload, tracer, args.pinned_cpu))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def measure(workload, tracer, pinned_cpu: int) -> dict[str, object]:
    if tracer is not None:
        tracer.reset()
    workload.run()
    workload.verify()
    host = host_record(pinned_cpu, workload.workdir, workload.db_files)
    layers: dict[str, float] = {}
    if tracer is not None:
        from layers import ATTRIBUTED_MIN, layer_metrics

        layers = layer_metrics(workload, tracer)
        layers.update(workload.service_counters())
        share = layers["trace.attributed_share"]
        workload.rec.check(share >= ATTRIBUTED_MIN,
                           f"named layers explain {share:.3f} of the wall time, "
                           f"under {ATTRIBUTED_MIN}")
    workload.close()
    e2e = workload.end_to_end()
    if tracer is not None:
        layers.update(ceilings(workload))
    rec = workload.rec
    host["speed_scale"] = {
        "median": statistics.median(rec.scales),
        "min": min(rec.scales), "max": max(rec.scales), "blocks": len(rec.scales),
    }
    return {
        "attempted": rec.attempted,
        "failed": rec.failed,
        "errors": rec.errors,
        "samples": {kind: len(s) for kind, s in rec.samples.items()},
        "raw_p50_ms": {kind: statistics.median(s) * 1e3 for kind, s in rec.raw.items()},
        "scales": rec.scales,
        "jobs": workload.jobs,
        "save_many_rows": workload.save_many_rows,
        "end_to_end": e2e,
        "layers": layers,
        "host": host,
    }


def ceilings(workload) -> dict[str, float]:
    """The same-host ceilings, scaled to reference host speed like every
    other figure, so that the ratios compare like with like."""
    import random

    import ceilings as c

    repository, ids, close = workload.ceiling_store()
    try:
        rng = random.Random(workload.seed)
        with probed() as host:
            repo_load = c.repo_load_us(repository, ids, rng)
        repo_load *= host["scale"]
        request, response = c.load_frame_sizes(repository.load(rng.choice(ids)))
    finally:
        close()
    with probed() as host:
        frame_rtt = c.frame_rtt_us(request, response)
    out = {"ceiling.repo_load_us": repo_load, "ceiling.frame_rtt_us": frame_rtt * host["scale"]}
    with probed() as host:
        rows_per_s = c.executemany_rows_per_s(workload.workdir / "ceiling.db")
    out["ceiling.executemany_rows_per_s"] = rows_per_s / host["scale"]
    with probed() as host:
        import_s = c.import_numpy_s()
    out["ceiling.import_numpy_s"] = import_s * host["scale"]
    return out


if __name__ == "__main__":
    sys.exit(main())
