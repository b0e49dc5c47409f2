"""Same-host ceilings for the layers, measured in the traced run.

Each ceiling is the cheapest way this host can do a layer's work with
the program's own machinery stripped away:

* ``repo_load_us``: a direct ``KnowledgeRepository.load`` on the
  workload's own store, the floor under a service ``load``;
* ``frame_rtt_us``: a raw two-process loopback TCP round trip carrying
  a ``load`` request and response frame of the store's median size;
* ``executemany_rows_per_s``: raw ``sqlite3`` executemany of the
  knowledge row shape (1 performance, 2 summary and 6 result rows per
  object) in 100-object transactions;
* ``import_numpy_s``: ``python3 -c 'import numpy'``, the floor under
  any interpreter the program starts.
"""

from __future__ import annotations

import socket
import sqlite3
import statistics
import subprocess
import sys
import time
from pathlib import Path

ECHO_SERVER = r"""
import socket, struct, sys
reply = b"x" * int(sys.argv[1])
srv = socket.socket()
srv.bind(("127.0.0.1", 0))
srv.listen(1)
print(srv.getsockname()[1], flush=True)
conn, _ = srv.accept()
conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
frame = struct.pack(">I", len(reply)) + reply
while True:
    head = conn.recv(4, socket.MSG_WAITALL)
    if len(head) < 4:
        break
    need = struct.unpack(">I", head)[0]
    while need:
        chunk = conn.recv(min(need, 65536))
        if not chunk:
            sys.exit(0)
        need -= len(chunk)
    conn.sendall(frame)
"""


def repo_load_us(repository, ids, rng, n: int = 2000) -> float:
    """Median direct-repository load of ids drawn uniformly."""
    samples = []
    for _ in range(n):
        knowledge_id = rng.choice(ids)
        start = time.perf_counter()
        repository.load(knowledge_id)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def load_frame_sizes(knowledge) -> tuple[int, int]:
    """Encoded sizes of a ``load`` request and its response for one object."""
    from repro.core.service.ops import encode_args, encode_result
    from repro.core.service.wire import encode_frame

    request = encode_frame({"id": 1, "op": "load", "args": encode_args("load", [1])})
    response = encode_frame({"id": 1, "ok": True, "result": encode_result("load", knowledge)})
    return len(request), len(response)


def frame_rtt_us(request_bytes: int, response_bytes: int, n: int = 3000) -> float:
    """Median round trip to an echo process over loopback TCP."""
    import struct

    proc = subprocess.Popen(
        [sys.executable, "-c", ECHO_SERVER, str(response_bytes)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        port = int(proc.stdout.readline())
        sock = socket.create_connection(("127.0.0.1", port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        payload = b"y" * request_bytes
        frame = struct.pack(">I", len(payload)) + payload
        samples = []
        for _ in range(n):
            start = time.perf_counter()
            sock.sendall(frame)
            need = struct.unpack(">I", sock.recv(4, socket.MSG_WAITALL))[0]
            while need:
                need -= len(sock.recv(min(need, 65536)))
            samples.append(time.perf_counter() - start)
        sock.close()
    finally:
        proc.stdout.close()
        proc.wait(timeout=30)
    return statistics.median(samples) * 1e6


def executemany_rows_per_s(path: Path, batches: int = 30, batch: int = 100) -> float:
    """Knowledge objects per second through raw executemany transactions."""
    conn = sqlite3.connect(str(path))
    try:
        conn.executescript(
            """
            CREATE TABLE perf (id INTEGER PRIMARY KEY, benchmark TEXT, command TEXT,
                api TEXT, test_file TEXT, fpp INTEGER, nodes INTEGER, tasks INTEGER,
                tpn INTEGER, t0 REAL, t1 REAL, params TEXT);
            CREATE TABLE summ (id INTEGER PRIMARY KEY, perf_id INTEGER, op TEXT,
                api TEXT, a REAL, b REAL, c REAL, d REAL, e REAL, f REAL, g REAL,
                h REAL, it INTEGER);
            CREATE TABLE res (summ_id INTEGER, it INTEGER, bw REAL, iops REAL);
            """
        )
        elapsed = 0.0
        next_id = 1
        for _ in range(batches):
            perf, summ, res = [], [], []
            for _ in range(batch):
                perf.append((next_id, "ior", "ior -a posix -t 1m", "POSIX", "/f", 1, 4,
                             80, 20, 1.0, 2.0, '{"tag": "t00"}'))
                for op in range(2):
                    sid = next_id * 2 + op
                    summ.append((sid, next_id, "write", "POSIX", 1.0, 2.0, 3.0, 4.0,
                                 5.0, 6.0, 7.0, 8.0, 3))
                    res.extend((sid, i, 100.0, 200.0) for i in range(3))
                next_id += 1
            start = time.perf_counter()
            with conn:
                conn.executemany("INSERT INTO perf VALUES (?,?,?,?,?,?,?,?,?,?,?,?)", perf)
                conn.executemany(
                    "INSERT INTO summ VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?)", summ)
                conn.executemany("INSERT INTO res VALUES (?,?,?,?)", res)
            elapsed += time.perf_counter() - start
    finally:
        conn.close()
    return batches * batch / elapsed


def import_numpy_s(repeats: int = 3) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)
