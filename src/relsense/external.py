"""Black box backed by an external process speaking a line protocol.

The process reads one request line (``d`` whitespace-separated decimal
floats) from stdin and writes one response line (a single decimal float)
to stdout, strictly alternating.  The process is started once and lives
for the whole campaign, so models with expensive start-up pay that cost
a single time.
"""

from __future__ import annotations

import subprocess

import numpy as np

from .model import BlackBox, EvaluationError

__all__ = ["ExternalBlackBox", "external_blackbox"]


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
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True, bufsize=1)
        except OSError as exc:
            raise EvaluationError(f"could not start external model {argv!r}: {exc}") from exc
        super().__init__(fn=self._query, dimension=dimension, name=" ".join(argv))

    def _query(self, x: np.ndarray) -> float:
        line = " ".join(format(v, ".17g") for v in x)
        try:
            self._proc.stdin.write(line + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError, ValueError) as exc:
            raise EvaluationError(
                f"external model {self.name!r} is not accepting input "
                f"(exit code {self._proc.poll()}), request was {line!r}") from exc
        response = self._proc.stdout.readline()
        if response == "":
            raise EvaluationError(
                f"external model {self.name!r} closed its output "
                f"(exit code {self._proc.poll()}), request was {line!r}")
        try:
            return float(response)
        except ValueError as exc:
            raise EvaluationError(
                f"non-numeric response line {response!r} from external model {self.name!r}") from exc

    def close(self):
        """Terminate the process; further evaluations will fail."""
        if self._proc.poll() is None:
            try:
                self._proc.stdin.close()
            except OSError:
                pass
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


def external_blackbox(command, dimension: int) -> ExternalBlackBox:
    """Wrap an external command as a :class:`BlackBox`.

    ``command`` is an argv list, run without a shell.  The returned
    box is not thread safe (a single pipe pair is shared) and keeps the
    process alive until :meth:`ExternalBlackBox.close` is called.
    """
    return ExternalBlackBox(command, dimension)
