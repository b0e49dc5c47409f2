"""Per-layer metrics of the traced run, from the span totals in ``tracing``.

The layer -> end-to-end metric -> workload map these feed is in
README.md.  Every metric is computed on every workload; a layer a
workload does not run reads 0, which is itself a checked prediction
(for example no ``service.*`` time on campaign-direct).
"""

from __future__ import annotations

from tracing import STORE_CALLS

REPO = "persistence.KnowledgeRepository"
GENERATION = ("jube", "benchmarks_io", "pfs", "iostack")
NAMED_LAYERS = GENERATION + ("extraction", "persistence", "campaign")
#: A traced run whose named layers explain less of its wall time fails.
ATTRIBUTED_MIN = 0.9


def _sum(snapshot: dict, prefix: str, field: str = "self_s") -> float:
    """Sum of one field over the entry points of a layer (``prefix.``)."""
    return sum(row[field] for key, row in snapshot.items() if key.startswith(prefix + "."))


def _calls(snapshot: dict, prefix: str) -> int:
    return int(sum(row["calls"] for key, row in snapshot.items() if key.startswith(prefix + ".")))


def _per_call(snapshot: dict, key: str, field: str, scale: float) -> float:
    row = snapshot.get(key)
    return row[field] / row["calls"] * scale if row and row["calls"] else 0.0


def layer_metrics(workload, tracer) -> dict[str, float]:
    """Layer metrics of a finished traced run (ceilings and ratios come later)."""
    end = workload.marks["end"]
    drain = workload.marks.get("drain", {})
    # Spans are unscaled, so shares use the unscaled busy time.
    measured = workload.rec.busy_raw_s
    jobs = max(workload.jobs, 1)
    out: dict[str, float] = {}

    # Generation and orchestration, per drained job (campaign-direct).
    drain_s = workload.rec.jobs_raw_s if drain else 0.0
    out["jube.self_ms_per_job"] = _sum(drain, "jube") / jobs * 1e3
    out["benchmarks_io.self_ms_per_job"] = _sum(drain, "benchmarks_io") / jobs * 1e3
    out["pfs.perfmodel_ms_per_job"] = _sum(drain, "pfs") / jobs * 1e3
    out["pfs.perfmodel_calls_per_job"] = _calls(drain, "pfs") / jobs
    out["iostack.testbed_ms_per_job"] = _sum(drain, "iostack") / jobs * 1e3
    out["extraction.ms_per_job"] = _sum(drain, "extraction") / jobs * 1e3
    out["persistence.save_ms_per_job"] = _sum(drain, "persistence") / jobs * 1e3
    out["campaign.store_ms_per_job"] = _sum(drain, "campaign") / jobs * 1e3
    out["campaign.store_calls_per_job"] = (
        sum(drain.get(key, {}).get("calls", 0) for key in STORE_CALLS) / jobs
    )
    out["campaign.empty_acquires"] = float(tracer.empty_acquires)
    for share, layers in (
        ("generation", GENERATION), ("extraction", ("extraction",)),
        ("persistence", ("persistence",)), ("campaign", ("campaign",)),
    ):
        spent = sum(_sum(drain, layer) for layer in layers)
        out[f"share.{share}"] = spent / drain_s if drain_s else 0.0

    # The service request path, per client call.
    requests = max(_calls(end, "service.client"), 1)
    persistence_s = _sum(end, "persistence")
    router_total = _sum(end, "service.router", "total_s")
    local_self = _sum(end, "service.transport.local")
    out["service.client.self_us"] = _sum(end, "service.client") / requests * 1e6
    out["service.ops.codec_us"] = _sum(end, "service.codec") / requests * 1e6
    out["service.transport.self_us"] = _sum(end, "service.transport.tcp") / requests * 1e6
    # The client's wire spans wait while the server thread routes the
    # request: what the router did not spend is framing and the hop.
    wire = _sum(end, "service.wire") - router_total if router_total else 0.0
    out["service.wire.frame_us"] = wire / requests * 1e6
    out["service.server.router_self_us"] = _sum(end, "service.router") / requests * 1e6
    out["service.worker.call_us"] = _sum(end, "service.worker", "total_s") / requests * 1e6
    # LocalTransport.call waits while the service thread runs the
    # repository: the rest is the queue hop and the service's own work.
    queue_wait = local_self - persistence_s if local_self else 0.0
    out["service.queue_wait_us"] = queue_wait / requests * 1e6

    # Persistence, per repository call wherever it ran in this process.
    save_many_calls = workload.rec.count("save_many")
    save_many_s = end.get(f"{REPO}.save_many", {}).get("total_s", 0.0)
    out["persistence.save_many_ms"] = _per_call(end, f"{REPO}.save_many", "total_s", 1e3)
    out["persistence.rows_per_s"] = (
        save_many_calls * workload.save_many_rows / save_many_s if save_many_s else 0.0
    )
    out["persistence.save_ms"] = _per_call(end, f"{REPO}.save", "total_s", 1e3)
    out["persistence.load_us"] = _per_call(end, f"{REPO}.load", "total_s", 1e6)
    out["persistence.scan_ms"] = (
        _per_call(end, f"{REPO}.scan_partial", "total_s", 1e3)
        or _per_call(end, f"{REPO}.scan", "total_s", 1e3)
    )

    # Spans are unscaled: put their times at reference host speed like
    # every other figure, by the run's time-weighted block scale.
    scale = sum(r[3] for r in workload.rec.jobs) / measured if measured else 1.0
    for name, value in out.items():
        if name.endswith(("_ms", "_us", "ms_per_job")):
            out[name] = value * scale
    out["persistence.rows_per_s"] /= scale
    out["server.start_s"] = workload.backend_start_s  # scaled in set-up

    # Share of the measured wall time the named layers account for.
    if drain:
        analysis = workload.marks.get("analysis", {})
        named = sum(_sum(window, layer) for window in (drain, analysis)
                    for layer in NAMED_LAYERS)
    else:
        # The request path, layer by layer: the figures above, summed.
        named = (
            _sum(end, "service.client") + _sum(end, "service.codec")
            + _sum(end, "service.transport.tcp") + wire
            + _sum(end, "service.router") + _sum(end, "service.worker", "total_s")
            # In process: the queue hop plus the shard repository.
            + local_self
        )
    out["trace.attributed_share"] = named / measured if measured else 0.0
    return out
