"""The daemon under test and the three ways a client talks to it.

`Daemon` starts `spsta_serviced` the way users run it (stdio, or `--listen`
on an ephemeral port read back from its stderr) and reaps it on every exit
path: `reap_all()` runs from `finally`, `atexit` and the SIGINT/SIGTERM
handlers installed by run.py.

The clients keep exactly one request outstanding (closed loop). Each send
records its start time; the matching reply yields the sojourn. Replies are
matched to requests by id, so a dropped, duplicated or reordered reply
raises `ProtocolError` instead of being timed.
"""

import ctypes
import json
import os
import select
import signal
import socket
import struct
import subprocess
import time

_LIVE = []  # every Daemon not yet reaped


class ProtocolError(Exception):
    """A reply that breaks the protocol: wrong id, bad frame, EOF."""


def reap_all():
    """Stops every daemon this process started and waits for each."""
    while _LIVE:
        _LIVE[-1].stop()


def _die_with_parent():
    """Runs in the child before exec: SIGTERM it if this process dies, so
    no daemon outlives a benchmark that was killed outright."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


class Daemon:
    """One `spsta_serviced` process. `listen=True` serves TCP on an
    ephemeral port; otherwise requests go over its stdin/stdout."""

    def __init__(self, binary, out_dir, tag, listen=False, args=()):
        self.stderr_path = os.path.join(out_dir, tag + ".stderr")
        self._stderr = open(self.stderr_path, "wb")
        argv = [binary] + list(args)
        if listen:
            argv.append("--listen=127.0.0.1:0")
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL if listen else subprocess.PIPE,
            stdout=subprocess.DEVNULL if listen else subprocess.PIPE,
            stderr=self._stderr,
            preexec_fn=_die_with_parent,
        )
        _LIVE.append(self)
        self.port = self._read_port() if listen else None

    def _read_port(self, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.stderr_path, "rb") as f:
                for line in f.read().decode(errors="replace").splitlines():
                    if "listening on " in line:
                        return int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise ProtocolError("daemon did not report a listening port")

    def peak_rss_mb(self):
        """VmHWM of the live daemon, in MiB."""
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ProtocolError("no VmHWM for the daemon")

    def stop(self, grace=5.0):
        if self in _LIVE:
            _LIVE.remove(self)
        if self.proc.poll() is None:
            if self.proc.stdin is not None:
                try:
                    self.proc.stdin.close()  # EOF ends a stdio daemon
                except OSError:
                    pass
            try:
                self.proc.wait(timeout=grace if self.proc.stdin is not None else 0.0)
            except subprocess.TimeoutExpired:
                pass
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdout, self.proc.stdin):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        self._stderr.close()


class _Conn:
    """Shared request bookkeeping: ids, the outstanding request, bytes."""

    def __init__(self):
        self.next_id = 0
        self.pending = None  # (id, t0)
        self.bytes_out = 0
        self.bytes_in = 0

    def _stamp(self, req):
        self.next_id += 1
        req["id"] = self.next_id
        return req

    def _finish(self, reply):
        rid, t0 = self.pending
        dt = time.perf_counter() - t0
        self.pending = None
        if reply.get("id") != rid:
            raise ProtocolError("reply id %r, expected %r" % (reply.get("id"), rid))
        return reply, dt

    def call(self, req):
        """Sends one request and waits for its reply: (reply, seconds)."""
        self.send(req)
        while True:
            done = self.poll()
            if done is not None:
                return done
            self.wait_readable()


class StdioConn(_Conn):
    """JSON lines over the daemon's stdin/stdout."""

    def __init__(self, daemon):
        super().__init__()
        self.w = daemon.proc.stdin
        self.r = daemon.proc.stdout

    def send(self, req):
        line = (dumps(self._stamp(req)) + "\n").encode()
        self.bytes_out += len(line)
        self.pending = (req["id"], time.perf_counter())
        self.w.write(line)
        self.w.flush()
        return line

    def wait_readable(self):
        pass

    def poll(self):
        line = self.r.readline()
        if not line:
            raise ProtocolError("daemon closed stdout")
        self.bytes_in += len(line)
        return self._finish(json.loads(line))


class _SocketConn(_Conn):
    def __init__(self, port):
        super().__init__()
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()

    def fileno(self):
        return self.sock.fileno()

    def wait_readable(self):
        select.select([self.sock], [], [], 60)
        self.feed()

    def feed(self):
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ProtocolError("connection closed by the daemon")
        self.bytes_in += len(chunk)
        self.buf += chunk

    def close(self):
        self.sock.close()


class LineConn(_SocketConn):
    """TCP connection speaking JSON lines."""

    def send(self, req):
        line = (dumps(self._stamp(req)) + "\n").encode()
        self.bytes_out += len(line)
        self.pending = (req["id"], time.perf_counter())
        self.sock.sendall(line)
        return line

    def poll(self):
        nl = self.buf.find(b"\n")
        if nl < 0:
            return None
        line = bytes(self.buf[:nl])
        del self.buf[: nl + 1]
        return self._finish(json.loads(line))


FRAME_MAGIC = b"\0SPF1"
KIND_JSON = 0


def encode_frame(kind, payload):
    return struct.pack("<IB", len(payload) + 1, kind) + payload


class FrameConn(_SocketConn):
    """TCP connection speaking `\\0SPF1` length-prefixed frames, JSON
    frames only (the ping round trip of the binary transport)."""

    def __init__(self, port):
        super().__init__(port)
        self.sock.sendall(FRAME_MAGIC)
        self.bytes_out += len(FRAME_MAGIC)

    def send(self, req):
        payload = dumps(self._stamp(req)).encode()
        frame = encode_frame(KIND_JSON, payload)
        self.bytes_out += len(frame)
        self.pending = (req["id"], time.perf_counter())
        self.sock.sendall(frame)
        return payload + b"\n"

    def poll(self):
        if len(self.buf) < 5:
            return None
        length, kind = struct.unpack_from("<IB", self.buf, 0)
        if length < 1 or kind != KIND_JSON:
            raise ProtocolError("unexpected frame (length %d, kind %d)" % (length, kind))
        if len(self.buf) < 4 + length:
            return None
        payload = bytes(self.buf[5 : 4 + length])
        del self.buf[: 4 + length]
        return self._finish(json.loads(payload))
