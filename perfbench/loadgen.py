"""Closed-loop HTTP load: a few threads, one keep-alive connection each.

Each client sends its next request only after the previous response
has been read in full, so a slower server receives less load.  Every
request is recorded as ``(thread, start, end, status, kind)``; a
request that raises counts with status 0.
"""

from __future__ import annotations

import http.client
import json
import threading
import time


class Client:
    """One keep-alive connection to the server under test."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def request(self, method: str, path: str, body: dict | None = None
                ) -> tuple[int, bytes]:
        """Send one request; returns ``(status, body bytes)``.  On a
        connection error the request fails, and the next one goes out
        on a new connection."""
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        try:
            self.conn.request(method, path, body=payload, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
            raise

    def get_json(self, path: str) -> dict:
        status, body = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}: {body[:200]!r}")
        return json.loads(body)

    def close(self) -> None:
        self.conn.close()


def kind_of(path: str) -> str:
    """The traffic class of a request path."""
    if path.startswith("/study/"):
        return "study"
    if path.startswith("/corpus/query"):
        return "corpus_query"
    if path.startswith("/corpus/stats"):
        return "corpus_stats"
    return "corpus_agg"


def run_closed_loop(host: str, port: int, paths: list[str], seconds: float,
                    threads: int = 2, spans=None, parent: int = 0
                    ) -> tuple[list[tuple], float]:
    """Drive *threads* clients through *paths* for *seconds*.

    Thread ``t`` walks ``paths[t::threads]`` cyclically.  With *spans*,
    each request is recorded as a span under *parent*.  Returns the
    request records and the loop's start time.
    """
    records: list[list[tuple]] = [[] for _ in range(threads)]
    errors: list[BaseException] = []
    start_gate = threading.Barrier(threads + 1)
    deadline = [0.0]
    op_ids = iter(range(1, 1 << 62))
    op_lock = threading.Lock()

    def next_op() -> int:
        with op_lock:
            return next(op_ids)

    def worker(index: int) -> None:
        client = Client(host, port)
        out = records[index]
        mine = paths[index::threads]
        try:
            start_gate.wait()
            i = 0
            while time.perf_counter() < deadline[0]:
                path = mine[i % len(mine)]
                op = next_op()
                start = time.perf_counter()
                try:
                    status, _ = client.request("GET", path)
                except (OSError, http.client.HTTPException):
                    status = 0
                end = time.perf_counter()
                out.append((index, start, end, status, kind_of(path)))
                if spans is not None:
                    spans.add("http." + kind_of(path), start, end, op, parent)
                i += 1
        except BaseException as exc:  # reported by the caller
            errors.append(exc)
        finally:
            client.close()

    pool = [threading.Thread(target=worker, args=(t,), daemon=True)
            for t in range(threads)]
    for thread in pool:
        thread.start()
    begin = time.perf_counter()
    deadline[0] = begin + seconds
    start_gate.wait()
    for thread in pool:
        thread.join(timeout=seconds + 120)
    if any(thread.is_alive() for thread in pool):
        raise RuntimeError("load generator thread did not finish")
    if errors:
        raise errors[0]
    return [r for per_thread in records for r in per_thread], begin
