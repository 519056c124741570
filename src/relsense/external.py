"""Black box backed by an external process speaking a line protocol.

The process reads one request line (``d`` whitespace-separated decimal
floats) from stdin and writes one response line (a single decimal float)
to stdout, with replies in request order; requests may be written before
earlier replies are read.  A model that reads a line, answers it and
flushes needs nothing more.  The process is started once and lives for
the whole campaign, so models with expensive start-up pay that cost a
single time.

A batch is one exchange: requests are written on a non-blocking pipe
while replies are drained under one selector loop, so no pipe size can
deadlock the two processes.  Requests carry every coordinate as ``%.17g``:
seventeen significant digits identify every double, so the model reads
back exactly the values of the batch.  Replies are parsed as they arrive,
but an error is raised only once every reply of the batch is read, so a bad
reply leaves no stale line behind for the next call.  The exchange is the
box's one model function, so a single evaluation is a one-row exchange.

On Linux the calling thread waits out an exchange under ``SCHED_BATCH``
(when it runs under ``SCHED_OTHER``) and gets its policy back afterwards.
A woken batch task does not preempt the running one (sched(7)), so a model
sharing the parent's CPU and flushing every reply is not interrupted once
per reply; the parent reads the replies when the model blocks on an
empty stdin, about once per request chunk.  Where the policy cannot be
set, the exchange runs under the thread's own policy.
"""

from __future__ import annotations

import os
import selectors
import subprocess

import numpy as np

from .model import BlackBox, EvaluationError

__all__ = ["ExternalBlackBox", "external_blackbox"]

# Rows encoded per request chunk and bytes taken per read of the replies.
# Small chunks let the model start answering sooner when both processes
# share one CPU, and keep the transient text of a batch (and the process's
# peak memory) small; one ``%.17g`` format call per chunk still amortises
# the per-value cost.  Under ``SCHED_BATCH`` (Linux) the parent wakes for
# the replies about once per chunk the model has drained, not per reply.
CHUNK_ROWS = 256
READ_BYTES = 1 << 14


def _wait_as_batch():
    """Put the calling thread on ``SCHED_BATCH``; return the policy to restore.

    Returns None, changing nothing, where the thread is not on
    ``SCHED_OTHER``, the platform has no ``SCHED_BATCH`` or the policy
    cannot be set.
    """
    batch = getattr(os, "SCHED_BATCH", None)
    if batch is None:
        return None
    try:
        if os.sched_getscheduler(0) != os.SCHED_OTHER:
            return None
        os.sched_setscheduler(0, batch, os.sched_param(0))
    except OSError:
        return None
    return os.SCHED_OTHER


class ExternalBlackBox(BlackBox):
    """Process-backed model; see :func:`external_blackbox`."""

    def __init__(self, command, dimension: int):
        if isinstance(command, str):
            raise TypeError("external command must be an argv list, not a string")
        argv = [str(c) for c in command]
        if not argv:
            raise ValueError("external command must not be empty")
        self._argv = argv
        try:
            self._proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
        except OSError as exc:
            raise EvaluationError(f"could not start external model {argv!r}: {exc}") from exc
        self._in_fd = self._proc.stdin.fileno()
        self._out_fd = self._proc.stdout.fileno()
        os.set_blocking(self._in_fd, False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._out_fd, selectors.EVENT_READ)
        self._row_format = "%.17g " * (int(dimension) - 1) + "%.17g\n"
        super().__init__(self._exchange, dimension, " ".join(argv))

    def _request(self, x: np.ndarray, i: int) -> str:
        """Request line ``i`` of batch ``x`` for an error message.

        The values are the ones written, each in its shortest ``repr``
        form rather than the ``%.17g`` of the wire.
        """
        return " ".join(map(repr, x[i].tolist()))

    def _failure(self, what: str, x: np.ndarray, i: int, exit_code) -> EvaluationError:
        return EvaluationError(
            f"external model {self.name!r} {what} (exit code {exit_code}), "
            f"request was {self._request(x, i)!r}")

    def _exit_code(self):
        """Exit code of a process that has stopped talking, or None."""
        try:
            return self._proc.wait(timeout=1)
        except subprocess.TimeoutExpired:
            return None

    def _exchange(self, x: np.ndarray) -> np.ndarray:
        """Send every row of ``x`` and return the ``n`` replies in order."""
        n = x.shape[0]
        if self._proc.stdin.closed or self._proc.poll() is not None:
            raise self._failure("is not accepting input", x, 0, self._proc.poll())
        sel, in_fd, out_fd = self._selector, self._in_fd, self._out_fd
        y, got, tail = np.empty(n), 0, b""  # replies, complete lines read, partial line
        bad = None                       # first non-numeric reply, raised once all are read
        chunk, sent, chunk_row, next_row = b"", 0, 0, 0
        refused_at = None                # rows written in full when a write failed
        sel.register(in_fd, selectors.EVENT_WRITE)
        policy = _wait_as_batch()
        try:
            while got < n:
                for key, _ in sel.select():
                    if key.fd == out_fd:
                        data = os.read(out_fd, READ_BYTES)
                        if not data:
                            raise self._failure("closed its output", x, got, self._exit_code())
                        *lines, tail = (tail + data).split(b"\n")
                        replies = lines[:n - got]
                        try:
                            y[got:got + len(replies)] = list(map(float, replies))
                        except ValueError:
                            for i, reply in enumerate(replies, got):
                                try:
                                    y[i] = float(reply)
                                except ValueError:
                                    bad = bad or (i, reply)
                        got += len(lines)
                        continue
                    if sent == len(chunk):
                        chunk_row, next_row = next_row, min(next_row + CHUNK_ROWS, n)
                        chunk = ((self._row_format * (next_row - chunk_row))
                                 % tuple(x[chunk_row:next_row].ravel().tolist())).encode()
                        sent = 0
                    try:
                        sent += os.write(in_fd, memoryview(chunk)[sent:])
                    except BlockingIOError:
                        continue
                    except OSError:
                        refused_at = chunk_row + chunk.count(b"\n", 0, sent)
                    if refused_at is not None or (sent == len(chunk) and next_row == n):
                        sel.unregister(in_fd)
                # requests written before the refusal may still be answered
                if refused_at is not None and got >= refused_at:
                    raise self._failure("is not accepting input", x, got, self._exit_code())
        finally:
            if policy is not None:
                os.sched_setscheduler(0, policy, os.sched_param(0))
            if in_fd in sel.get_map():
                sel.unregister(in_fd)
        if got != n or tail:
            raise EvaluationError(
                f"external model {self.name!r} wrote more than one line per request, "
                f"last request was {self._request(x, n - 1)!r}")
        if bad is not None:
            i, reply = bad
            raise EvaluationError(
                f"non-numeric response line {reply.decode(errors='replace')!r} "
                f"from external model {self.name!r}, request was {self._request(x, i)!r}")
        return y

    def close(self):
        """Terminate the process; further evaluations will fail."""
        self._selector.close()
        self._proc.stdin.close()
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()


def external_blackbox(command, dimension: int) -> ExternalBlackBox:
    """Wrap an external command as a :class:`BlackBox`.

    ``command`` is an argv list, run without a shell.  The returned
    box is not thread safe (a single pipe pair is shared) and keeps the
    process alive until :meth:`ExternalBlackBox.close` is called (as on
    leaving a ``with`` block).
    """
    return ExternalBlackBox(command, dimension)
