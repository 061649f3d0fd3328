"""Run one function in a forked child process while the caller goes on.

``start(function, *args)`` forks; the child calls ``function(*args)`` and
sends back its result, or its exception, pickled through a pipe.  The
caller reads it with ``Child.result`` and must ``close`` the child in a
``finally``, which kills and reaps a child that still runs, so no child
outlives the caller's call.

The child writes nothing to stdout or stderr: both go to the null device,
as file descriptors and as sys streams, so output buffered in the parent
before the fork is never written twice.  It leaves through ``os._exit``,
so no exit handler of the parent runs in it.

``start`` forks only on Linux.  Elsewhere, or when the fork fails, it
returns None and the caller runs the function itself; macOS's Accelerate,
for one, does not survive a fork.  The parent may hold BLAS worker threads
when it forks; OpenBLAS stops its pool before a fork and starts it again
when next needed, and the child runs only numpy and this package.
Python 3.12 and later warn (DeprecationWarning) about a fork in a process
with threads.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import traceback
from typing import NoReturn


class Child:
    """A forked child that sends one pickled message through a pipe:
    (True, result, None), or (False, exception, the child's traceback
    text)."""

    def __init__(self, pid: int, pipe):
        self.pid = pid
        self.pipe = pipe

    def result(self):
        """The child's result, once it has sent it and been reaped; its
        exception is raised here."""
        payload = self.pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if status != 0 or not payload:
            raise RuntimeError("the forked child ended without a result "
                               f"(wait status {status})")
        done, value, trace = pickle.loads(payload)
        if not done:
            raise value from RuntimeError(
                "raised in the forked child:\n" + trace)
        return value

    def close(self) -> None:
        """Kill and reap the child if it still runs."""
        self.pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def start(function, *args) -> Child | None:
    """A child that runs ``function(*args)``, or None where it does not
    fork."""
    if not (sys.platform.startswith("linux") and hasattr(os, "fork")):
        return None
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        os.close(read_end)
        _serve(write_end, function, args)
    os.close(write_end)
    return Child(pid, os.fdopen(read_end, "rb"))


def _serve(write_end: int, function, args) -> NoReturn:
    """The child's whole life: silence stdout and stderr, call the function
    and write its outcome to ``write_end``."""
    code = 1
    try:
        quiet = open(os.devnull, "w")
        os.dup2(quiet.fileno(), 1)
        os.dup2(quiet.fileno(), 2)
        sys.stdout = sys.stderr = quiet
        try:
            payload = pickle.dumps((True, function(*args), None))
        except Exception as exc:
            payload = _pickled_error(exc)
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _pickled_error(exc: Exception) -> bytes:
    """(False, exc, traceback text) pickled; an exception that does not
    survive pickling is sent as a RuntimeError that names it."""
    trace = traceback.format_exc()
    try:
        payload = pickle.dumps((False, exc, trace))
        pickle.loads(payload)
    except Exception:
        payload = pickle.dumps(
            (False, RuntimeError(f"{type(exc).__name__}: {exc}"), trace))
    return payload
