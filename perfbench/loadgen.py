"""Closed-loop HTTP/1.1 load over keep-alive loopback connections.

Request bytes are built before timing; the timed loop sends them, reads
the status line, finds ``Content-Length`` and reads exactly that many
body bytes.  Bodies are kept raw and decoded only after the phase.
Each request carries an ``X-Bench-Req`` id header (in traced and
untraced runs alike) that the tracing launcher joins server spans on.
"""

from __future__ import annotations

import json
import socket
import threading
import time


def post(path: str, body: bytes) -> tuple[bytes, bytes]:
    """A POST split around its request id: ``(head, tail)``."""
    head = (f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nX-Bench-Req: ").encode()
    return head, b"\r\n\r\n" + body


def estimate_request(label: str, patterns) -> tuple[bytes, bytes]:
    body = ({"pattern": patterns[0]} if len(patterns) == 1
            else {"patterns": list(patterns)})
    return post(f"/labels/{label}/estimate", json.dumps(body).encode())


class Connection:
    """One keep-alive connection; ``send`` is one request/response."""

    _ids = iter(range(1, 1 << 62))  # shared by all connections of a run

    def __init__(self, port: int, timeout: float = 60.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout)
        self.buf = b""

    def close(self) -> None:
        self.sock.close()

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def send(self, request: tuple[bytes, bytes]) -> tuple[int, int, bytes]:
        """``(request id, HTTP status, body bytes)``."""
        rid = next(Connection._ids)
        self.sock.sendall(request[0] + str(rid).encode() + request[1])
        while (end := self.buf.find(b"\r\n\r\n")) < 0:
            self._fill()
        head = self.buf[:end].lower()
        at = head.index(b"content-length:") + 15
        line_end = head.find(b"\r\n", at)
        length = int(head[at:line_end if line_end >= 0 else None])
        stop = end + 4 + length
        while len(self.buf) < stop:
            self._fill()
        body = self.buf[end + 4:stop]
        self.buf = self.buf[stop:]
        return rid, int(head[9:12]), body

    def get_json(self, path: str):
        request = (f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                   "X-Bench-Req: ").encode(), b"\r\n\r\n"
        _, status, body = self.send(request)
        if status != 200:
            raise ConnectionError(f"GET {path} answered {status}")
        return json.loads(body)


class Loop(threading.Thread):
    """One closed-loop client: next request only after the last reply.

    ``requests`` is a sequence of prebuilt requests; the loop sends them
    in order (wrapping around) until ``stop()`` or ``limit`` sends.
    Records ``(kind index, request id, start ns, end ns, status, body)``.
    """

    def __init__(self, port, requests, *, limit=None):
        super().__init__(daemon=True)
        self.conn = Connection(port)
        self.requests = requests
        self.limit = limit
        self.records = []
        self.error = None
        self._halt = threading.Event()

    def stop(self):
        self._halt.set()

    def run(self):
        requests, records, clock = self.requests, self.records, \
            time.perf_counter_ns
        i = 0
        try:
            while not self._halt.is_set() and (
                    self.limit is None or i < self.limit):
                index = i % len(requests)
                start = clock()
                rid, status, body = self.conn.send(requests[index])
                records.append((index, rid, start, clock(), status, body))
                i += 1
        except Exception as exc:  # noqa: BLE001 — reported by the run
            self.error = exc
        finally:
            self.conn.close()
