"""Outside-in layer tracing: spans around each layer's public entry points.

The benchmark wraps functions of the program from here, in the traced
run only; no span lives inside the program.  Each wrapped call is a
span.  A span's *self* time is its duration minus the time of the spans
it caused on the same thread, so summing self time over layers splits a
thread's wall time without double counting.  Work a request causes on
another thread or process (the TCP server's connection thread, the
embedded service's worker thread, a shard worker process) is not a
child span; ``layers.layer_metrics`` subtracts those totals
explicitly where one layer waits on another.

Accumulators are per thread and merged on read, so concurrent threads
never race on one counter.
"""

from __future__ import annotations

import threading
import time

#: layer -> list of (owner, attribute) entry points.  ``owner`` is a
#: dotted module or ``module:Class`` path resolved at install time.
ENTRY_POINTS: dict[str, tuple[tuple[str, str], ...]] = {
    # ---- generation: JUBE, the IOR/IO500/mdtest drivers, the PFS model
    "jube": (
        ("repro.core.cycle", "load_benchmark"),
        ("repro.jube.benchmark:JubeBenchmark", "run"),
    ),
    "benchmarks_io": (
        ("repro.jube.steps", "run_ior"),
        ("repro.jube.steps", "run_io500"),
        ("repro.jube.steps", "run_mdtest"),
    ),
    "pfs": (
        ("repro.pfs.perfmodel:PerfModel", "transfer_times_s"),
        ("repro.pfs.perfmodel:PerfModel", "metadata_times_s"),
        ("repro.pfs.perfmodel:PerfModel", "per_rank_bandwidth_bps"),
    ),
    "iostack": (("repro.iostack.stack:Testbed", "fuchs_csc"),),
    "extraction": (
        ("repro.core.extraction.workspace:KnowledgeExtractor", "extract"),
    ),
    # ---- persistence: the repositories and the commit that makes a write durable
    "persistence": tuple(
        ("repro.core.persistence.repository:KnowledgeRepository", name)
        for name in (
            "save", "save_many", "load", "fetch_many", "find_ids_by_parameter",
            "scan", "scan_partial", "count", "exists", "list_ids", "load_all",
            "delete",
        )
    ) + tuple(
        ("repro.core.persistence.io500_repo:IO500Repository", name)
        for name in ("save", "save_many", "load", "fetch_many", "list_ids")
    ) + (("repro.core.persistence.database:KnowledgeDatabase", "commit"),),
    # ---- campaign orchestration: the job store the launcher polls
    "campaign": tuple(
        ("repro.core.campaign.store:CampaignStore", name)
        for name in (
            "acquire", "heartbeat", "complete", "mark_ready", "fail", "steal",
            "campaign", "counts", "active_count", "job", "jobs",
            "job_ids_in_state", "reclaim", "dependency_knowledge_ids",
            "ready_count",
        )
    ),
    # ---- knowledge service request path, outside in
    "service.client": tuple(
        ("repro.core.service.client:ServiceClient", name)
        for name in (
            "save", "save_many", "load", "fetch_many", "find_ids_by_parameter",
            "scan", "count", "stats",
        )
    ),
    "service.codec": (
        ("repro.core.service.client", "encode_args"),
        ("repro.core.service.client", "decode_result"),
        ("repro.core.service.ops", "decode_args"),
        ("repro.core.service.ops", "encode_result"),
    ),
    "service.transport.tcp": (
        ("repro.core.service.transport:TcpTransport", "call"),
    ),
    "service.transport.local": (
        ("repro.core.service.ops:LocalTransport", "call"),
    ),
    "service.wire": (
        ("repro.core.service.transport", "write_frame"),
        ("repro.core.service.transport", "read_frame"),
    ),
    "service.router": (("repro.core.service.server:ShardRouter", "call"),),
    "service.worker": (("repro.core.service.server:WorkerHandle", "call"),),
}

#: Store calls counted per job in the campaign workload.
STORE_CALLS = tuple(
    f"campaign.CampaignStore.{name}"
    for name in ("acquire", "heartbeat", "complete", "mark_ready")
)


class Tracer:
    """Installs span wrappers and totals them per entry point.

    An entry point's key is ``layer.attribute`` for a module function
    and ``layer.Class.attribute`` for a method; its totals are
    ``total_s`` (inclusive), ``self_s`` (minus same-thread child spans)
    and ``calls``.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[dict[str, list[float]]] = []
        self.empty_acquires = 0

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            totals: dict[str, list[float]] = {}
            state = self._local.state = (totals, [])
            with self._lock:
                self._threads.append(totals)
        return state

    def _wrap(self, key: str, fn):
        tracer = self
        counts_empty = key == "campaign.CampaignStore.acquire"

        def span(*args, **kwargs):
            totals, stack = tracer._thread_state()
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                acc = totals.get(key)
                if acc is None:
                    acc = totals[key] = [0.0, 0.0, 0]
                acc[0] += elapsed
                acc[1] += frame[0]
                acc[2] += 1
            if counts_empty and result is None:
                with tracer._lock:
                    tracer.empty_acquires += 1
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", key)
        return span

    def install(self) -> None:
        import importlib

        for layer, points in ENTRY_POINTS.items():
            for owner_path, attr in points:
                module_name, _, class_name = owner_path.partition(":")
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                    key = f"{layer}.{class_name}.{attr}"
                    raw = owner.__dict__[attr]
                else:
                    key = f"{layer}.{attr}"
                    raw = getattr(owner, attr)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(key, raw.__func__))
                else:
                    wrapped = self._wrap(key, raw)
                setattr(owner, attr, wrapped)

    def reset(self) -> None:
        with self._lock:
            for totals in self._threads:
                totals.clear()
            self.empty_acquires = 0

    def snapshot(self) -> dict[str, dict[str, float]]:
        """key -> {"total_s", "self_s", "calls"}, merged over threads."""
        merged: dict[str, dict[str, float]] = {}
        with self._lock:
            for totals in self._threads:
                for key, (total, child, calls) in list(totals.items()):
                    row = merged.setdefault(
                        key, {"total_s": 0.0, "self_s": 0.0, "calls": 0}
                    )
                    row["total_s"] += total
                    row["self_s"] += total - child
                    row["calls"] += calls
        return merged
