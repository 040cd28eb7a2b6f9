"""Shared threaded line-protocol TCP server.

The BMC, SNMP-agent and BACnet device simulators all speak simple
newline-delimited request/response protocols; this base class owns the
socket plumbing (accept loop, per-connection reader threads, clean
shutdown) so each device module only implements ``handle_line``.
"""

from __future__ import annotations

import logging
import socket
import threading

logger = logging.getLogger(__name__)


class LineServer:
    """A TCP server dispatching one text line to one text response.

    Subclasses implement :meth:`handle_line`; multi-line responses are
    returned as a single string with embedded newlines, always
    terminated by the ``END`` marker line so clients can frame replies
    without timeouts.
    """

    #: Marker terminating every response.
    END_MARKER = "END"

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self._server_sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._running = False
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        self.requests_served = 0

    # -- protocol hook ----------------------------------------------------

    def handle_line(self, line: str) -> str:
        """Process one request line; return the response body.

        The framework appends the END marker.  Raise ValueError to
        produce an ``ERROR`` response.
        """
        raise NotImplementedError

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self._requested_port))
        sock.listen(64)
        self._server_sock = sock
        self.port = sock.getsockname()[1]
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{type(self).__name__}-accept", daemon=True
        )
        self._accept_thread.start()

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        if self._server_sock is not None:
            # On Linux close() alone does not wake a thread blocked in
            # accept(); shutdown() does.
            try:
                self._server_sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._server_sock.close()
            except OSError:
                pass
        with self._conns_lock:
            for conn in list(self._conns):
                try:
                    conn.close()
                except OSError:
                    pass
            self._conns.clear()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)

    def __enter__(self) -> "LineServer":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- internals ---------------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._server_sock is not None
        while self._running:
            try:
                conn, _addr = self._server_sock.accept()
            except OSError:
                break
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._conns_lock:
                self._conns.add(conn)
            threading.Thread(
                target=self._conn_loop, args=(conn,), daemon=True
            ).start()

    def _conn_loop(self, conn: socket.socket) -> None:
        buf = b""
        try:
            while self._running:
                try:
                    data = conn.recv(4096)
                except OSError:
                    break
                if not data:
                    break
                buf += data
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    text = line.decode("utf-8", errors="replace").strip()
                    if not text:
                        continue
                    try:
                        body = self.handle_line(text)
                    except ValueError as exc:
                        body = f"ERROR {exc}"
                    except Exception as exc:  # noqa: BLE001 - device must stay up
                        logger.warning("%s: handler failed: %s", type(self).__name__, exc)
                        body = f"ERROR internal: {type(exc).__name__}"
                    self.requests_served += 1
                    response = f"{body}\n{self.END_MARKER}\n".encode("utf-8")
                    try:
                        conn.sendall(response)
                    except OSError:
                        return
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass


class LineClient:
    """Blocking client for :class:`LineServer` protocols.

    Plugins share one client per entity (the paper's host-entity
    pattern); a lock serializes request/response pairs on the single
    connection.
    """

    def __init__(self, host: str, port: int, timeout: float = 5.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()

    def connect(self) -> None:
        if self._sock is not None:
            return
        self._sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def request(self, line: str) -> list[str]:
        """Send one request line; return response lines (END stripped).

        Raises ``ConnectionError`` on transport failure and
        ``ValueError`` when the device answered with ERROR.
        """
        with self._lock:
            if self._sock is None:
                raise ConnectionError("not connected")
            self._sock.sendall((line + "\n").encode("utf-8"))
            buf = b""
            while True:
                data = self._sock.recv(4096)
                if not data:
                    raise ConnectionError("device closed connection")
                buf += data
                if buf.endswith(b"\nEND\n") or buf == b"END\n":
                    break
        lines = buf.decode("utf-8").splitlines()
        assert lines[-1] == "END"
        body = lines[:-1]
        if body and body[0].startswith("ERROR"):
            raise ValueError(body[0][6:])
        return body
