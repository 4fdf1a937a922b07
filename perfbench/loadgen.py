"""HTTP load generator for the ``serve`` workload.

One process, at most ``nproc`` threads, one keep-alive connection per
thread.  Requests are raw HTTP/1.1 over plain sockets, so the client's
own cost per request stays small next to the server's.  Each request
carries an ``X-Bench-Op`` header with its operation id, which the traced
server reads to tag its spans.

- :func:`closed_loop`: each connection sends its next request as soon as
  the previous answer arrives, for a fixed duration.
- :func:`open_loop`: requests are due on a fixed schedule at ``rate`` per
  second, dealt round-robin to the connections; latency is timed from
  each request's due time, so a stall also delays the requests queued
  behind it.  The phase records how late each request was sent and is
  marked invalid when the generator fell behind the schedule.

Every request's outcome is returned: an answer or a failure (an HTTP
error, a timeout or a broken connection all count as failures).
"""

from __future__ import annotations

import json
import socket
import threading
import time

_clock = time.perf_counter

TIMEOUT_S = 10.0

#: Share of the scheduled rate the open loop must reach to be valid.
MIN_SCHEDULE_SHARE = 0.9


class Connection:
    """One keep-alive connection posting queries to ``/kb/{kb}/query``."""

    def __init__(self, host: str, port: int, kb: str):
        self.address = (host, port)
        self.path = f"/kb/{kb}/query".encode()
        self.sock: socket.socket | None = None

    def connect(self) -> "Connection":
        """Open the socket now, so the first request does not pay for it."""
        if self.sock is None:
            self.sock = socket.create_connection(self.address, timeout=TIMEOUT_S)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return self

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def request(self, method: bytes, path: bytes, body: bytes, op: int):
        """One round trip: ``(status, body bytes)``; raises ``OSError``."""
        self.connect()
        head = (
            b"%s %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json"
            b"\r\nContent-Length: %d\r\nX-Bench-Op: %d\r\n\r\n"
            % (method, path, len(body), op)
        )
        try:
            self.sock.sendall(head + body)
            return _read_response(self.sock)
        except OSError:
            self.close()
            raise

    def query(self, body: bytes, op: int):
        """Post one query body; the answer, or None on any failure."""
        try:
            status, payload = self.request(b"POST", self.path, body, op)
        except OSError:
            return None
        if status != 200:
            return None
        try:
            return json.loads(payload)["answer"]
        except (ValueError, KeyError):
            return None


def _read_response(sock: socket.socket) -> tuple[int, bytes]:
    buffer = b""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buffer += chunk
    head, _, body = buffer.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    status = int(lines[0].split(b" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(body) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        body += chunk
    return status, body


def get_json(host: str, port: int, path: str) -> dict:
    """A one-off GET on a fresh connection; raises ``OSError`` on failure."""
    connection = Connection(host, port, "")
    try:
        status, payload = connection.request(b"GET", path.encode(), b"", -1)
    finally:
        connection.close()
    if status != 200:
        raise ConnectionError(f"GET {path} answered {status}")
    return json.loads(payload)


def query_bodies(queries: list[str]) -> list[bytes]:
    return [json.dumps({"query": text}).encode() for text in queries]


def closed_loop(
    host: str, port: int, kb: str, bodies: list, connections: int,
    seconds: float, first_op: int,
) -> dict:
    """``connections`` back-to-back senders for ``seconds``.

    Returns ``samples`` as ``(op, query index, due, sent, end, answer)``
    (``due`` equals ``sent`` in a closed loop; ``answer`` is None for a
    failed request) and the phase's wall time.
    """
    samples: list[list] = [[] for _ in range(connections)]
    barrier = threading.Barrier(connections + 1)
    box = {}

    def sender(slot: int) -> None:
        connection = Connection(host, port, kb).connect()
        out = samples[slot]
        barrier.wait()
        deadline = box["start"] + seconds
        index = slot
        while True:
            start = _clock()
            if start >= deadline:
                break
            op = first_op + slot + connections * len(out)
            query = index % len(bodies)
            answer = connection.query(bodies[query], op)
            out.append((op, query, start, start, _clock(), answer))
            index += 1
        connection.close()

    threads = [
        threading.Thread(target=sender, args=(slot,), daemon=True)
        for slot in range(connections)
    ]
    for thread in threads:
        thread.start()
    box["start"] = _clock()
    barrier.wait()
    for thread in threads:
        thread.join(seconds + 2 * TIMEOUT_S)
    flat = [sample for chunk in samples for sample in chunk]
    end = max((sample[4] for sample in flat), default=box["start"])
    return {"samples": flat, "wall_s": end - box["start"]}


def open_loop(
    host: str, port: int, kb: str, bodies: list, connections: int,
    rate: float, seconds: float, first_op: int,
) -> dict:
    """Requests due every ``1/rate`` seconds, timed from their due time.

    ``samples`` are shaped as in :func:`closed_loop`; ``sent - due`` is
    how late the generator sent each request.
    """
    total = int(rate * seconds)
    samples: list[list] = [[] for _ in range(connections)]
    barrier = threading.Barrier(connections + 1)
    box = {}

    def sender(slot: int) -> None:
        connection = Connection(host, port, kb).connect()
        barrier.wait()
        start = box["start"]
        for number in range(slot, total, connections):
            due = start + number / rate
            now = _clock()
            if due > now:
                time.sleep(due - now)
            sent = _clock()
            query = number % len(bodies)
            answer = connection.query(bodies[query], first_op + number)
            samples[slot].append(
                (first_op + number, query, due, sent, _clock(), answer)
            )
        connection.close()

    threads = [
        threading.Thread(target=sender, args=(slot,), daemon=True)
        for slot in range(connections)
    ]
    for thread in threads:
        thread.start()
    box["start"] = _clock() + 0.01
    barrier.wait()
    for thread in threads:
        thread.join(seconds + 2 * TIMEOUT_S)
    flat = [sample for chunk in samples for sample in chunk]
    last_send = max((sample[3] for sample in flat), default=box["start"])
    achieved = len(flat) / max(last_send - box["start"], 1e-9)
    return {
        "samples": flat,
        "rate": rate,
        "achieved_rate": achieved,
        "valid": len(flat) == total and achieved >= MIN_SCHEDULE_SHARE * rate,
    }
