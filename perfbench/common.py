"""Shared pieces of the benchmark: generated inputs, timing, checks, host record.

Everything here is the benchmark's own code.  The program under test
(``src/repro``) only ever sees the inputs generated from ``--seed``.
"""

from __future__ import annotations

import math
import os
import platform
import random
import sqlite3
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Stores and result files live here, inside the checkout, on its
#: (disk-backed) filesystem -- never tmpfs, which would hide flush cost.
WORK = ROOT / ".perfbench"

#: Load samples needed before a p99 has ten samples beyond it.
P99_MIN_SAMPLES = 1000

APIS = ("POSIX", "MPIIO", "HDF5")
NODES = (1, 2, 4, 8, 16)
TRANSFER_SIZES = ("256k", "1m", "4m", "16m")
TAGS = tuple(f"t{i:02d}" for i in range(48))


def _pstdev(values: list[float]) -> float:
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def make_knowledge(rng: random.Random, index: int):
    """One IOR-shaped knowledge object: two summaries of three iterations."""
    from repro.core.knowledge import (
        FilesystemInfo,
        Knowledge,
        KnowledgeResult,
        KnowledgeSummary,
    )

    nodes = rng.choice(NODES)
    api = rng.choice(APIS)
    summaries = []
    for operation in ("write", "read"):
        base = rng.uniform(200.0, 9000.0)
        bws = [base * rng.uniform(0.9, 1.1) for _ in range(3)]
        iops = [bw * rng.uniform(0.5, 2.0) for bw in bws]
        summaries.append(
            KnowledgeSummary(
                operation=operation, api=api,
                bw_max=max(bws), bw_min=min(bws), bw_mean=sum(bws) / 3,
                bw_stddev=_pstdev(bws),
                ops_max=max(iops), ops_min=min(iops), ops_mean=sum(iops) / 3,
                ops_stddev=_pstdev(iops), iterations=3,
                results=[
                    KnowledgeResult(iteration=i, bandwidth_mib=bws[i], iops=iops[i])
                    for i in range(3)
                ],
            )
        )
    xfer = rng.choice(TRANSFER_SIZES)
    return Knowledge(
        "ior",
        command=f"ior -a {api.lower()} -b 64m -t {xfer} -s 16 -F -i 3 -o /scratch/b/{index}",
        api=api,
        test_file=f"/scratch/b/{index}",
        file_per_proc=True,
        num_nodes=nodes,
        num_tasks=nodes * 20,
        tasks_per_node=20,
        start_time=1.6e9 + index,
        end_time=1.6e9 + index + rng.uniform(5.0, 50.0),
        parameters={"tag": rng.choice(TAGS), "transfersize": xfer, "seq": index},
        summaries=summaries,
        filesystem=FilesystemInfo(
            entry_type="file", stripe_pattern=rng.choice(("4x512K", "8x1M")),
            chunk_size="1M", num_targets=8, raid_scheme="RAID6", storage_pool="1",
        ),
        system={
            "hostname": f"node{rng.randrange(198):03d}", "system_name": "fuchs-csc",
            "processor_model": "E5-2670 v2", "architecture": "x86_64",
            "processor_cores": 20, "processor_mhz": 2500.0,
            "cache_size_bytes": 26214400, "memory_bytes": 137438953472,
        },
    )


def scan_queries():
    """The fixed scan set: six filtered queries, two grouped with percentiles.

    A grouped percentile scan costs tens of times a filtered one, so the
    mix keeps them a quarter of the set.  ``scan_p50_ms`` is the
    geometric mean of the eight queries' own medians.
    """
    from repro.core.persistence.scan import ScanQuery

    return (
        ScanQuery(metric="bw_mean", benchmark="ior", operation="write"),
        ScanQuery(metric="bw_max", operation="read", num_nodes_min=4),
        ScanQuery(metric="ops_mean", api="MPIIO", num_nodes_max=4),
        ScanQuery(metric="bw_mean", operation="write", num_tasks_min=80),
        ScanQuery(metric="bw_min", api="POSIX", operation="read"),
        ScanQuery(metric="bw_mean", group_by=("api",), num_nodes_min=2),
        ScanQuery(metric="bw_mean", group_by=("num_nodes", "operation"),
                  percentiles=(50.0, 90.0, 99.0)),
        ScanQuery(metric="ops_mean", group_by=("api", "operation"),
                  percentiles=(50.0, 99.0)),
    )


def scan_equal(got, want, rel_tol: float = 1e-9) -> bool:
    """Group-by-group equality of two scan results (sums are float-order tolerant)."""
    if [r.group for r in got.rows] != [r.group for r in want.rows]:
        return False
    for a, b in zip(got.rows, want.rows):
        if set(a.values) != set(b.values):
            return False
        for key, va in a.values.items():
            vb = b.values[key]
            if key in ("mean", "stddev"):
                if not math.isclose(va, vb, rel_tol=rel_tol, abs_tol=1e-9):
                    return False
            elif va != vb:
                return False
    return True


#: Probe time that defines reference host speed: about what ``probe_s``
#: takes on the reference host (2-vCPU Xeon VM, Python 3.11) in its
#: fast state; in its slow state it takes up to 1.7 times as long.
REFERENCE_PROBE_S = 0.5e-3


class _Probe:
    """A fixed mix of the three kinds of work the program does.

    Pure-Python bytecode, SQLite point queries with JSON decoding, and
    pipe system calls, each about a third of the probe's time.  On the
    reference host the host's speed moves each kind differently: over
    150 one-second windows, a direct ``load`` slowed 1.3 times as much
    as a pure-Python loop did, and 0.8 times as much as the SQLite
    part; the equal mix tracked it with a slope of 1.02 and left a
    residual spread of 3% against 21% unscaled.
    """

    PY_ITERATIONS = 3300
    SQL_QUERIES = 24
    PIPE_ROUND_TRIPS = 200

    def __init__(self) -> None:
        import json

        rng = random.Random(0)
        self.db = sqlite3.connect(":memory:")
        self.db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, doc TEXT)")
        self.db.executemany("INSERT INTO t VALUES (?, ?)", [
            (i, json.dumps({"a": i, "b": [i * 1.5] * 8, "c": "x" * 40}))
            for i in range(5000)
        ])
        self.keys = [rng.randrange(5000) for _ in range(self.SQL_QUERIES)]
        self.read_fd, self.write_fd = os.pipe()
        self.loads = json.loads

    def __call__(self) -> float:
        start = time.thread_time()
        acc = 0
        for i in range(self.PY_ITERATIONS):
            acc += i * i % 7
        for key in self.keys:
            self.loads(self.db.execute("SELECT doc FROM t WHERE id = ?", (key,)).fetchone()[0])
        for _ in range(self.PIPE_ROUND_TRIPS):
            os.write(self.write_fd, b"x" * 64)
            os.read(self.read_fd, 64)
        return time.thread_time() - start


_probe: _Probe | None = None


def probe_s() -> float:
    """CPU time of the fixed probe mix: how fast the host runs now.

    The reference host switches between speeds for seconds at a time
    and drifts over minutes, and every timed operation moves with it.
    Thread CPU time, not wall time, so that work of the program's own
    threads and processes sharing the pinned CPU does not count as a
    slow host.  The median of three probes damps the probe's own noise.
    """
    global _probe
    if _probe is None:
        _probe = _Probe()
    return statistics.median(_probe() for _ in range(3))


@contextmanager
def probed():
    """Yield a dict whose ``scale`` is set on exit to the block's
    host-speed scale, from probes just before and just after it.

    For the one-off timings outside ``Recorder`` blocks: the backend
    start and the ceilings.  Multiply a time by the scale, divide a
    rate by it.
    """
    out: dict[str, float] = {}
    before = probe_s()
    yield out
    out["scale"] = REFERENCE_PROBE_S / ((before + probe_s()) / 2)


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Recorder:
    """Timed operations and jobs of one run, and the attempted/failed tally.

    ``op`` times one call; a typed program error counts as a failed
    operation and the run goes on.  ``fail`` records a wrong answer
    found by a check.  ``aside`` excludes the benchmark's own work
    (checks, input copies) from a block's time.

    Every timed operation runs inside a ``timed`` block, and the host
    speed is probed (``probe_s``) at each block boundary.  A block's
    times are scaled by ``REFERENCE_PROBE_S`` over the mean of the
    probes on either side of it, so every time is reported at reference
    host speed.  The probe is the benchmark's own fixed work, so a
    change in the program moves the scaled times exactly as it moves
    the raw ones; what the scaling removes is the host's speed at the
    moment.  Raw times are kept as well, for the run record.
    """

    def __init__(self) -> None:
        #: kind -> scaled latencies; ``raw`` keeps the unscaled ones.
        self.samples: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        #: One record per block that did client work, scaled:
        #: (jobs, jobs_s, ops, ops_s).
        self.jobs: list[tuple[int, float, int, float]] = []
        self.busy_raw_s = self.jobs_raw_s = 0.0
        #: Each block's speed scale (reference probe over measured probe).
        self.scales: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.aside_s = 0.0
        self._pending: list[tuple[str, float]] = []
        self._probe = None

    def op(self, kind: str, fn, *args):
        from repro.util.errors import ReproError

        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except ReproError as exc:
            self.fail(f"{kind}: {exc!r}")
            return None
        self._pending.append((kind, time.perf_counter() - start))
        return result

    @contextmanager
    def aside(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.aside_s += time.perf_counter() - start

    @contextmanager
    def timed(self):
        """A probed block; yields a dict that receives its ``ops``, scaled
        busy ``s``, unscaled ``raw_s`` and ``scale``."""
        if self._probe is None:
            self._probe = probe_s()
        out: dict[str, float] = {}
        before = self._probe
        self._pending = []
        ops, aside, start = self.attempted, self.aside_s, time.perf_counter()
        try:
            yield out
        finally:
            raw_s = time.perf_counter() - start - (self.aside_s - aside)
            self._probe = probe_s()
            scale = REFERENCE_PROBE_S / ((before + self._probe) / 2)
            self.scales.append(scale)
            for kind, seconds in self._pending:
                self.samples.setdefault(kind, []).append(seconds * scale)
                self.raw.setdefault(kind, []).append(seconds)
            self._pending = []
            out.update(ops=self.attempted - ops, s=raw_s * scale, raw_s=raw_s, scale=scale)

    def job(self, block: dict, jobs: int) -> None:
        """Record a finished ``timed`` block of client work that did ``jobs``.

        A block that finished no job (campaign-direct's analysis) counts
        toward ``ops_per_s`` only.  Unscaled busy time is summed apart,
        for the traced run's shares of wall time.
        """
        self.jobs.append((jobs, block["s"] if jobs else 0.0, block["ops"], block["s"]))
        self.busy_raw_s += block["raw_s"]
        if jobs:
            self.jobs_raw_s += block["raw_s"]

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(why)

    def check(self, ok: bool, why: str) -> None:
        if not ok:
            self.fail(why)

    def count(self, kind: str) -> int:
        return len(self.samples.get(kind, ()))

    def _sorted(self, kind: str) -> list[float]:
        samples = self.samples.get(kind)
        if not samples:
            raise RuntimeError(f"no {kind} samples")
        return sorted(samples)

    def p50_ms(self, kind: str) -> float:
        return statistics.median(self._sorted(kind)) * 1e3

    def p50_of_classes_ms(self, prefix: str) -> float:
        """Geometric mean over the classes ``prefix.N`` of each one's median.

        A scan set mixes queries whose costs differ tenfold and grow
        with the store at different rates; a median of the pooled
        samples falls in a gap between them and jumps.  Each query's
        median over the whole run keeps the store's growth in it, and
        the geometric mean weighs a change to any query alike.
        """
        classes = [kind for kind in self.samples if kind.startswith(prefix + ".")]
        if not classes:
            raise RuntimeError(f"no {prefix} samples")
        logs = [math.log(statistics.median(self.samples[kind])) for kind in classes]
        return math.exp(sum(logs) / len(logs)) * 1e3

    def p99_ms(self, kind: str, min_samples: int = P99_MIN_SAMPLES) -> float:
        """Nearest-rank p99; it needs ``min_samples``."""
        samples = self._sorted(kind)
        if len(samples) < min_samples:
            raise RuntimeError(
                f"{kind}: {len(samples)} samples cannot support a p99 "
                f"(need {min_samples})"
            )
        return nearest_rank(samples, 0.99) * 1e3

    def rate(self, count: int, seconds: int) -> float:
        """Job-record field ``count`` summed over field ``seconds`` summed."""
        records = [r for r in self.jobs if r[seconds] > 0]
        return sum(r[count] for r in records) / sum(r[seconds] for r in records)


def rss_peak_mib() -> float:
    """Peak RSS of this process or of its largest reaped child, in MiB."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def filesystem_of(path: Path) -> str:
    """The filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1].replace("\\040", " ")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def sqlite_settings(db_file: Path) -> dict[str, object]:
    """Journal mode and sync level a fresh connection sees on a store file."""
    conn = sqlite3.connect(str(db_file))
    try:
        return {
            "file": db_file.name,
            "journal_mode": conn.execute("PRAGMA journal_mode").fetchone()[0],
            "synchronous": conn.execute("PRAGMA synchronous").fetchone()[0],
        }
    finally:
        conn.close()


def host_record(pinned_cpu: int, store_dir: Path, db_files: list[Path]) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "pinned_cpu": pinned_cpu,
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "store_filesystem": filesystem_of(store_dir),
        "sqlite_sync": (
            "unchanged: the benchmark issues no PRAGMA on the program's "
            "connections; the values below are what a fresh connection reads"
        ),
        "sqlite_files": [sqlite_settings(f) for f in db_files if f.exists()],
    }
