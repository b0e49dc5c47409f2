"""The three workloads.  README.md in this directory says why each exists.

Each workload runs a fixed operation schedule generated from the seed:
its size depends on ``--seconds`` and the seed only, never on how fast
the program is, so a faster layer cannot change how much work a run
does.  Every workload is one closed-loop client: it sends the next
operation when the previous one has returned.

``load.py`` drives a workload in a fresh interpreter: ``setup()``
(everything before the measured schedule), ``run()`` (the measured
schedule), ``verify()`` (checks that need the finished store), then
``end_to_end()`` and, in the traced run, the layer metrics.

"Jobs" are each workload's unit of client work: a campaign job on
campaign-direct, an analysis session on query-tcp, an ingest job on
ingest-embedded.  ``ops`` counts every timed call; on campaign-direct a
campaign job counts as one.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from itertools import combinations
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    P99_MIN_SAMPLES,
    Recorder,
    make_knowledge,
    probed,
    rss_peak_mib,
    scan_equal,
    scan_queries,
)

#: Knowledge-parameter key the launcher tags every row with.
TOKEN = "campaign_job"
#: ``fetch_many`` batch size.
SMALL_BATCH = 16


def _counter(snapshot: dict, name: str, **labels: str) -> float:
    """Sum of one counter family's series whose labels include ``labels``."""
    family = snapshot.get("counters", {}).get(name, {})
    return float(sum(
        row["value"] for row in family.get("series", ())
        if all(row["labels"].get(k) == v for k, v in labels.items())
    ))


class Workload:
    name = ""
    #: Rows per ``save_many`` call (the executemany ceiling ratio uses it).
    save_many_rows: float = 0
    #: Loads a run needs before it reports a p99.
    p99_min_samples = P99_MIN_SAMPLES

    def __init__(self, seed: int, seconds: int, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.rec = Recorder()
        self.backend_start_s = 0.0
        self.db_files: list[Path] = []
        self.tracer = None
        self.marks: dict[str, dict] = {}

    def mark(self, label: str) -> None:
        """Snapshot the tracer at a phase boundary of the traced run."""
        if self.tracer is not None:
            self.marks[label] = self.tracer.snapshot()

    @contextmanager
    def traced_window(self, label: str):
        """Add the spans of the block to ``marks[label]`` (traced run only)."""
        if self.tracer is None:
            yield
            return
        before = self.tracer.snapshot()
        yield
        window = self.marks.setdefault(label, {})
        for key, row in self.tracer.snapshot().items():
            base = before.get(key, {})
            acc = window.setdefault(key, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            for field in acc:
                acc[field] += row[field] - base.get(field, 0)

    @property
    def jobs(self) -> int:
        return sum(r[0] for r in self.rec.jobs)

    def end_to_end(self) -> dict[str, float]:
        rec = self.rec
        return {
            "rss_peak_mib": rss_peak_mib(),
            "jobs_per_s": rec.rate(0, 1),
            "ops_per_s": rec.rate(2, 3),
            "load_p50_ms": rec.p50_ms("load"),
            "load_p99_ms": rec.p99_ms("load", self.p99_min_samples),
            "fetch_many_p50_ms": rec.p50_ms("fetch_many"),
            "find_p50_ms": rec.p50_ms("find"),
            "scan_p50_ms": rec.p50_of_classes_ms("scan"),
            "save_p50_ms": rec.p50_ms("save"),
            "save_many_p50_ms": rec.p50_ms("save_many"),
        }

    def service_counters(self) -> dict[str, float]:
        """Per-layer counters the program's own metrics give (traced run)."""
        return {}


# ----------------------------------------------------------------------
# campaign-direct
# ----------------------------------------------------------------------
IOR_COMMAND = "ior -a mpiio -b 16m -t $transfersize -s 8 -F -e -i 3 -o /scratch/bench/ior -k"
IOR_NODES = (1, 2, 4, 8, 16)
IOR_SIZES_PER_ROUND = 2
IO500_PER_ROUND = 1
#: Drain cost of one round on the reference host; sizes the schedule.
ROUND_S = 1.0
#: Fewest rounds a run makes, so that its loads support a p99.
MIN_ROUNDS = 20


@dataclass
class _Round:
    """One campaign round: its campaigns and its direct knowledge file."""

    campaigns: list[int]
    knowledge_db: Path
    repo: object = None
    io500_repo: object = None
    backend: object = None
    reference: dict = field(default_factory=dict)
    jobs: list = field(default_factory=list)


class CampaignDirect(Workload):
    """Rounds of IOR and IO500 campaigns drained by a single-thread
    ``Launcher`` into a direct SQLite knowledge file, each followed by
    the explorer's read path over the round and a merge into one
    combined knowledge file that ``scan()`` answers from (its IOR rows
    also kept, row by row, in a sweep file).  Each round drains into a
    file of its own, so every drain does the same work and
    ``jobs_per_s`` does not drift with the round's position."""

    name = "campaign-direct"

    def _round_specs(self, r: int, sizes: list[str]):
        """One round: an IOR node sweep per transfer size, one IO500 campaign."""
        from repro.core.campaign.spec import CampaignSpec

        nodes = ",".join(map(str, IOR_NODES))
        specs = [
            CampaignSpec(
                name=f"bench-ior-{r}-{size}", benchmark="ior",
                parameters={"nodes": nodes},
                fixed={"transfersize": size, "taskspernode": "20", "command": IOR_COMMAND},
                report={"x_axis": "nodes", "metric": "bw_mean"},
            )
            for size in sizes
        ]
        specs.append(CampaignSpec(
            name=f"bench-io500-{r}", benchmark="io500",
            parameters={"run": ",".join(
                str(self.rng.randrange(10**6)) for _ in range(IO500_PER_ROUND)
            )},
            fixed={"nodes": "1", "taskspernode": "20", "workdir": "/scratch/bench/io500"},
            report={"x_axis": "run", "metric": "bw_mean"},
        ))
        return specs

    def _launcher(self, campaign_id: int, workspace: str):
        from repro.core.campaign.launcher import Launcher

        return Launcher(
            self.store, campaign_id, workspace=self.workdir / workspace,
            workers=1, seed=self.seed, poll_s=0.005,
        )

    @staticmethod
    def _open_direct(path: Path):
        from repro.core.persistence.backend import ResilientBackend
        from repro.core.persistence.database import KnowledgeDatabase
        from repro.core.persistence.io500_repo import IO500Repository
        from repro.core.persistence.repository import KnowledgeRepository

        backend = ResilientBackend(KnowledgeDatabase(path))
        return KnowledgeRepository(backend), IO500Repository(backend), backend

    def setup(self) -> None:
        from repro.core.campaign.spec import CampaignSpec
        from repro.core.campaign.store import CampaignStore

        self.store = CampaignStore(self.workdir / "campaigns.db")
        rounds = max(MIN_ROUNDS, round(self.seconds / ROUND_S))
        # Every round runs the same sizes, so rounds cost alike.
        self.sizes = self.rng.sample(["512k", "1m", "2m", "4m"], IOR_SIZES_PER_ROUND)
        self.rounds = []
        for r in range(rounds):
            knowledge_db = self.workdir / f"knowledge-{r}.db"
            self.rounds.append(_Round(
                [self.store.submit(spec, str(knowledge_db))
                 for spec in self._round_specs(r, self.sizes)],
                knowledge_db,
            ))
        # Warm-up: one small job of each kind into a throwaway file, so
        # lazy imports and first-use caches are paid before timing.
        warm_db = str(self.workdir / "warmup.db")
        for spec in (
            CampaignSpec(name="warm-ior", benchmark="ior",
                         parameters={"nodes": "1"},
                         fixed={"transfersize": "1m", "taskspernode": "4",
                                "command": IOR_COMMAND}),
            CampaignSpec(name="warm-io500", benchmark="io500",
                         parameters={"nodes": "1"},
                         fixed={"taskspernode": "2", "workdir": "/scratch/warm"}),
        ):
            self._launcher(self.store.submit(spec, warm_db), "warmup").run()
        with probed() as host:
            start = time.perf_counter()
            for rnd in self.rounds:
                rnd.repo, rnd.io500_repo, rnd.backend = self._open_direct(rnd.knowledge_db)
            self.combined, _, self.combined_backend = self._open_direct(
                self.workdir / "combined.db")
            self.sweeps, _, self.sweeps_backend = self._open_direct(self.workdir / "sweeps.db")
            elapsed = time.perf_counter() - start
        self.backend_start_s = elapsed * host["scale"]
        self.combined_rows: list = []
        self.batched_rows = self.sweep_rows = 0
        self.db_files = [
            self.rounds[0].knowledge_db, self.workdir / "combined.db",
            self.workdir / "campaigns.db",
        ]

    def run(self) -> None:
        rec = self.rec
        for rnd in self.rounds:
            # One probed block per campaign, so that the host-speed
            # scaling follows the drain closely.
            for cid in rnd.campaigns:
                with rec.timed() as drain, self.traced_window("drain"):
                    jobs = sum(self._launcher(cid, "ws").run().values())
                rec.attempted += jobs
                drain["ops"] += jobs
                rec.job(drain, jobs)
            # The checks' reference copy of the round, before the block.
            rnd.jobs = [job for cid in rnd.campaigns for job in self.store.jobs(cid)]
            rnd.reference = {k.knowledge_id: k for k in rnd.repo.load_all()}
            with rec.timed() as analysis, self.traced_window("analysis"):
                self._analyse(rnd)
            rec.job(analysis, 0)
        self.mark("end")

    def _analyse(self, rnd: _Round) -> None:
        """The explorer's read path over one round, then its merge and scans.

        Per round: the exactly-once witness (``find`` of every benchmark
        job's token), ``repro-explore --compare`` of each transfer
        size's node sweep (``fetch_many``), ``--view`` of every row and
        ``--diff`` of every pair of runs that differ in node count or in
        transfer size only (``load``), the merge of the round into the
        combined file (one ``save_many``), its IOR rows kept in the
        sweep file (a ``save`` per row), and ``scan()`` answers over
        the combined file.
        """
        from repro.core.persistence.scan import fold_scan
        from repro.core.persistence.transfer import knowledge_from_dict, knowledge_to_dict

        rec, rng = self.rec, self.rng
        by_token: dict[str, int] = {}
        for job in rnd.jobs:
            if job.kind != "benchmark":
                continue
            found = rec.op("find", rnd.repo.find_ids_by_parameter, TOKEN, job.token)
            with rec.aside():
                rec.check(found is not None and len(found) == 1,
                          f"token {job.token} on {found!r} rows, expected one")
                if found:
                    by_token[job.token] = found[0]
        ids = sorted(by_token.values())
        sweeps = [
            [by_token[job.token] for job in rnd.jobs
             if job.kind == "benchmark" and job.campaign_id == cid and job.token in by_token]
            for cid in rnd.campaigns[:IOR_SIZES_PER_ROUND]
        ]
        for sweep in sweeps:
            got = rec.op("fetch_many", rnd.repo.fetch_many, sweep)
            with rec.aside():
                rec.check(got == [rnd.reference.get(i) for i in sweep],
                          "fetch_many differs from the round's rows")
        with rec.aside():
            views = list(ids)
            rng.shuffle(views)
            views += [i for sweep in sweeps for pair in combinations(sweep, 2) for i in pair]
            views += [i for column in zip(*sweeps) for pair in combinations(column, 2)
                      for i in pair]
        for knowledge_id in views:
            got = rec.op("load", rnd.repo.load, knowledge_id)
            with rec.aside():
                rec.check(got == rnd.reference.get(knowledge_id),
                          f"load({knowledge_id}) differs from the round's rows")
        with rec.aside():
            copies = [knowledge_from_dict(knowledge_to_dict(rnd.reference[i]))
                      for i in sorted(rnd.reference)]
            sweep_rows = [knowledge_from_dict(knowledge_to_dict(k))
                          for k in copies if k.benchmark == "ior"]
        merged = rec.op("save_many", self.combined.save_many, copies)
        with rec.aside():
            rec.check(merged is not None and len(merged) == len(copies),
                      f"save_many of {len(copies)} rows returned {merged!r}")
            self.combined_rows.extend(copies)
            self.batched_rows += len(copies)
        # The IOR sweeps row by row in one transaction, the way the
        # launcher's sink writes a job's rows.  The commit, whose fsync
        # follows the disk rather than the host speed the scaling
        # follows, is not in the save samples.
        with self.sweeps_backend.transaction():
            for k in sweep_rows:
                knowledge_id = rec.op("save", self.sweeps.save, k)
                with rec.aside():
                    rec.check(knowledge_id is not None, "IOR row not kept")
        self.sweep_rows += len(sweep_rows)
        for query_no, query in enumerate(scan_queries()):
            got = rec.op(f"scan.{query_no}", self.combined.scan, query)
            with rec.aside():
                rec.check(got is not None
                          and scan_equal(got, fold_scan(query, self.combined_rows)),
                          f"scan {query} over {len(self.combined_rows)} rows "
                          "differs from fold_scan")

    @property
    def save_many_rows(self) -> float:
        return self.batched_rows / max(self.rec.count("save_many"), 1)

    def verify(self) -> None:
        rec = self.rec
        jobs = [job for rnd in self.rounds for job in rnd.jobs]
        for job in jobs:
            rec.check(job.state == "DONE", f"job {job.name} ended {job.state}")
        tokens = [job.token for job in jobs]
        rec.check(len(set(tokens)) == len(tokens), "idempotency tokens not unique")
        for rnd in self.rounds:
            benchmark_jobs = sum(1 for job in rnd.jobs if job.kind == "benchmark")
            rows = rnd.repo.count()
            rec.check(rows == benchmark_jobs == len(rnd.reference),
                      f"{rows} knowledge rows for {benchmark_jobs} benchmark jobs")
            io500_runs = len(rnd.io500_repo.list_ids())
            rec.check(io500_runs == IO500_PER_ROUND,
                      f"{io500_runs} IO500 runs for {IO500_PER_ROUND} jobs")
        combined = self.combined.count()
        rec.check(combined == len(self.combined_rows),
                  f"combined file holds {combined} rows, {len(self.combined_rows)} merged")
        sweeps = self.sweeps.count()
        rec.check(sweeps == self.sweep_rows,
                  f"sweep file holds {sweeps} rows, {self.sweep_rows} kept")

    def close(self) -> None:
        for rnd in self.rounds:
            rnd.backend.close()
        self.combined_backend.close()
        self.sweeps_backend.close()
        self.store.close()

    def ceiling_store(self):
        """The first round's knowledge file reopened directly: repository, ids, closer."""
        repo, _, backend = self._open_direct(self.rounds[0].knowledge_db)
        return repo, repo.list_ids(), backend.close


# ----------------------------------------------------------------------
# the knowledge-service workloads
# ----------------------------------------------------------------------
class _ServiceWorkload(Workload):
    """Model bookkeeping and checks shared by the two service workloads.

    ``model`` maps every id the service handed out to the object saved
    under it; ``order`` keeps them in write order, so a scan answer can
    be held to ``fold_scan`` over exactly the rows present when it ran.
    """

    def _start_model(self) -> None:
        self.model: dict[int, object] = {}
        self.order: list = []
        self.by_tag: dict[str, set[int]] = {}
        self.scans: list = []
        self.next_index = 0

    def _new_objects(self, n: int, tag: str | None = None) -> list:
        objects = [make_knowledge(self.rng, self.next_index + i) for i in range(n)]
        if tag is not None:
            for k in objects:
                k.parameters["tag"] = tag
        self.next_index += n
        return objects

    def _remember(self, objects, ids) -> None:
        for k, knowledge_id in zip(objects, ids):
            self.rec.check(knowledge_id not in self.model, f"id {knowledge_id} reused")
            self.model[knowledge_id] = k
            self.order.append(k)
            self.by_tag.setdefault(k.parameters["tag"], set()).add(knowledge_id)

    def _load(self, knowledge_id: int) -> None:
        got = self.rec.op("load", self.client.load, knowledge_id)
        with self.rec.aside():
            self.rec.check(got == self.model[knowledge_id],
                           f"load({knowledge_id}) differs from the saved object")

    def _fetch_many(self, ids: list[int]) -> None:
        got = self.rec.op("fetch_many", self.client.fetch_many, ids)
        with self.rec.aside():
            self.rec.check(got == [self.model[i] for i in ids],
                           "fetch_many differs from the saved objects")

    def _find(self, tag: str) -> None:
        got = self.rec.op("find", self.client.find_ids_by_parameter, "tag", tag)
        with self.rec.aside():
            self.rec.check(got is not None and set(got) == self.by_tag.get(tag, set()),
                           f"find(tag={tag}) differs from the rows saved with it")

    def _save(self, tag: str | None = None) -> int | None:
        with self.rec.aside():
            (k,) = self._new_objects(1, tag)
        knowledge_id = self.rec.op("save", self.client.save, k)
        with self.rec.aside():
            if knowledge_id is not None:
                self._remember([k], [knowledge_id])
        return knowledge_id

    def _save_many(self, n: int, tag: str | None = None) -> list[int]:
        with self.rec.aside():
            batch = self._new_objects(n, tag)
        ids = self.rec.op("save_many", self.client.save_many, batch)
        with self.rec.aside():
            if ids is not None:
                self._remember(batch, ids)
        return list(ids or ())

    def _scan(self, query_no: int) -> None:
        query = scan_queries()[query_no]
        got = self.rec.op(f"scan.{query_no}", self.client.scan, query)
        with self.rec.aside():
            if got is not None:
                self.scans.append((query, len(self.order), got))

    #: Every this many timed scans is checked (1: all of them).
    scan_check_every = 1

    def verify(self) -> None:
        """Timed scans, then the final count and scans, against the model."""
        from repro.core.persistence.scan import fold_scan

        rec = self.rec
        for query, rows, got in self.scans[::self.scan_check_every]:
            rec.check(scan_equal(got, fold_scan(query, self.order[:rows])),
                      f"scan {query} over {rows} rows differs from fold_scan")
        count = self.client.count()
        rec.check(count == len(self.model), f"count() {count} != {len(self.model)} rows written")
        for query in scan_queries():
            rec.check(scan_equal(self.client.scan(query), fold_scan(query, self.order)),
                      f"final scan {query} differs from fold_scan")

    def _note_counters(self, *families: tuple[str, dict]) -> None:
        snap = self.metrics.snapshot()
        self.counters0 = {
            (name, tuple(sorted(labels.items()))): _counter(snap, name, **labels)
            for name, labels in families
        }

    def _metric_delta(self, name: str, **labels: str) -> float:
        return _counter(self.metrics.snapshot(), name, **labels) - self.counters0.get(
            (name, tuple(sorted(labels.items()))), 0.0
        )

    def service_counters(self) -> dict[str, float]:
        hits = self.stats1["cache_hits"] - self.stats0["cache_hits"]
        misses = self.stats1["cache_misses"] - self.stats0["cache_misses"]
        return {
            "service.cache_hit_ratio": hits / max(hits + misses, 1),
            "service.client.retries": _counter(
                self.client_metrics.snapshot(), "service.client.retries_total"),
        }

    def ceiling_store(self):
        """Shard 0 of the closed store opened directly: repository, local ids, closer."""
        from repro.core.service.shard import KnowledgeShardMap, decode_knowledge_id

        shard_map = KnowledgeShardMap(self.root)
        ids = [local for local, shard in map(decode_knowledge_id, self.model) if shard == 0]
        return shard_map.shards[0].repository, ids, shard_map.close


# ----------------------------------------------------------------------
# query-tcp
# ----------------------------------------------------------------------
PRELOAD = 2000
PRELOAD_BATCH = 100
CACHE = 128
#: One analysis session: 80 operations, 5% of them single saves.
SESSION = (
    ("load",) * 68 + ("fetch_many",) * 3 + ("find",) * 3 + ("scan",) * 2
    + ("save",) * 4
)
SESSION_S = 0.32


class QueryTcp(_ServiceWorkload):
    """One client connection to a ``knowledge+tcp://`` server (one worker
    process, two shards) over a store many times the server cache."""

    name = "query-tcp"
    save_many_rows = PRELOAD_BATCH

    def setup(self) -> None:
        from repro.core.metrics import MetricsRegistry
        from repro.core.service.client import ServiceClient
        from repro.core.service.server import KnowledgeServer

        self.root = self.workdir / "store"
        self.metrics = MetricsRegistry()
        self.client_metrics = MetricsRegistry()
        with probed() as host:
            start = time.perf_counter()
            self.server = KnowledgeServer(
                self.root, shards=2, worker_processes=1, channels_per_worker=1,
                worker_threads=1, cache_size=CACHE, metrics=self.metrics,
            ).start()
            elapsed = time.perf_counter() - start
        self.backend_start_s = elapsed * host["scale"]
        self.client = ServiceClient.open(
            f"knowledge+tcp://{self.server.host}:{self.server.port}/?pool=1",
            metrics=self.client_metrics,
        )
        self.db_files = sorted(self.root.glob("shard-*.db"))
        self._start_model()
        # The preload is the store's ingest: its save_many batches are
        # this workload's save_many samples (part of set-up time too).
        for _ in range(PRELOAD // PRELOAD_BATCH):
            with self.rec.timed():
                self._save_many(PRELOAD_BATCH)
        self.preload_ids = list(self.model)
        sessions = max(-(-P99_MIN_SAMPLES // SESSION.count("load")),
                       round(self.seconds / SESSION_S))
        self.schedule = []
        for _ in range(sessions):
            ops = list(SESSION)
            self.rng.shuffle(ops)
            self.schedule.append(ops)
        # Warm-up: every read kind once, and a few hundred loads.
        for _ in range(200):
            self.client.load(self.rng.choice(self.preload_ids))
        self.client.fetch_many(self.rng.sample(self.preload_ids, SMALL_BATCH))
        self.client.find_ids_by_parameter("tag", "t00")
        self.client.scan(scan_queries()[0])
        self.stats0 = self.client.stats()
        self._note_counters(
            ("service.transport.bytes_total", {"direction": "in"}),
            ("service.transport.bytes_total", {"direction": "out"}),
            ("service.transport.frames_total", {"direction": "in"}),
            ("service.transport.frames_total", {"direction": "out"}),
            ("service.supervisor.respawns_total", {}),
        )

    def run(self) -> None:
        rec, rng = self.rec, self.rng
        queries = scan_queries()
        tags = sorted(self.by_tag)
        scan_no = 0
        for session in self.schedule:
            with rec.timed() as job:
                for kind in session:
                    if kind == "load":
                        self._load(rng.choice(self.preload_ids))
                    elif kind == "fetch_many":
                        self._fetch_many(rng.sample(self.preload_ids, SMALL_BATCH))
                    elif kind == "find":
                        self._find(rng.choice(tags))
                    elif kind == "scan":
                        self._scan(scan_no % len(queries))
                        scan_no += 1
                    else:
                        self._save()
            rec.job(job, 1)
        self.mark("end")
        self.stats1 = self.client.stats()

    def close(self) -> None:
        self.client.close()
        self.server.close()

    def service_counters(self) -> dict[str, float]:
        frames_in = self._metric_delta("service.transport.frames_total", direction="in")
        frames_out = self._metric_delta("service.transport.frames_total", direction="out")
        return {
            **super().service_counters(),
            "service.wire.bytes_per_request": self._metric_delta(
                "service.transport.bytes_total", direction="in") / max(frames_in, 1),
            "service.wire.bytes_per_response": self._metric_delta(
                "service.transport.bytes_total", direction="out") / max(frames_out, 1),
            "service.server.respawns": self._metric_delta(
                "service.supervisor.respawns_total"),
        }


# ----------------------------------------------------------------------
# ingest-embedded
# ----------------------------------------------------------------------
INGEST_PRELOAD = 1000
INGEST_BATCH = 100
#: After its save_many, an ingest job interleaves these (seeded order).
INGEST_TAIL = ("load",) * 24 + ("save",) * 4
INGEST_JOB_S = 0.11
SCAN_EVERY = 4


class IngestEmbedded(_ServiceWorkload):
    """A write-heavy client of an in-process ``knowledge+service://`` store
    with two shards: batched ingest, read-back, periodic scans."""

    name = "ingest-embedded"
    save_many_rows = INGEST_BATCH
    #: Every fifth timed scan is held to ``fold_scan`` (five is coprime
    #: with the eight queries, so each is checked at several store
    #: sizes); folding the growing store for every scan costs seconds.
    scan_check_every = 5

    def setup(self) -> None:
        from repro.core.metrics import MetricsRegistry
        from repro.core.service.client import ServiceClient

        self.root = self.workdir / "store"
        self.metrics = self.client_metrics = MetricsRegistry()
        with probed() as host:
            start = time.perf_counter()
            self.client = ServiceClient.open(
                f"knowledge+service://{self.root.resolve()}?shards=2&workers=1",
                metrics=self.metrics,
            )
            elapsed = time.perf_counter() - start
        self.backend_start_s = elapsed * host["scale"]
        self.db_files = sorted(self.root.glob("shard-*.db"))
        self._start_model()
        for _ in range(INGEST_PRELOAD // INGEST_BATCH):
            batch = self._new_objects(INGEST_BATCH, "preload")
            self._remember(batch, self.client.save_many(batch))
        jobs = max(-(-P99_MIN_SAMPLES // INGEST_TAIL.count("load")),
                   round(self.seconds / INGEST_JOB_S))
        self.schedule = []
        for _ in range(jobs):
            tail = list(INGEST_TAIL)
            self.rng.shuffle(tail)
            self.schedule.append(tail)
        # Warm-up on the preloaded rows: each read kind once.
        ids = list(self.model)
        for knowledge_id in ids[:50]:
            self.client.load(knowledge_id)
        self.client.fetch_many(ids[:SMALL_BATCH])
        self.client.find_ids_by_parameter("tag", "preload")
        self.client.scan(scan_queries()[0])
        self.stats0 = self.client.stats()
        self._note_counters(("resilience.retries_total", {"site": "persistence"}))

    def run(self) -> None:
        rec, rng = self.rec, self.rng
        queries = scan_queries()
        for job_no, tail in enumerate(self.schedule):
            token = f"ingest-{self.seed}-{job_no}"
            with rec.timed() as job:
                written = self._save_many(INGEST_BATCH, token)
                for kind in tail:
                    if kind == "save":
                        knowledge_id = self._save(token)
                        if knowledge_id is not None:
                            written.append(knowledge_id)
                    elif written:
                        self._load(rng.choice(written))
                if written:
                    self._fetch_many(rng.sample(written, min(SMALL_BATCH, len(written))))
                self._find(token)
                if job_no % SCAN_EVERY == SCAN_EVERY - 1:
                    self._scan((job_no // SCAN_EVERY) % len(queries))
            rec.job(job, 1)
        self.mark("end")
        self.stats1 = self.client.stats()

    def close(self) -> None:
        self.client.close()

    def service_counters(self) -> dict[str, float]:
        return {
            **super().service_counters(),
            "persistence.backend_retries": self._metric_delta(
                "resilience.retries_total", site="persistence"),
        }


WORKLOADS = {w.name: w for w in (CampaignDirect, QueryTcp, IngestEmbedded)}
