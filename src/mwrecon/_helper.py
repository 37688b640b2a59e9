"""Persistent helper processes that run a private function on pickled arguments.

:func:`run` runs ``fn(*args)`` for every argument tuple: the first in this
process, each further one in its own helper process, all at once.  A
helper is started on first use with this interpreter and this package
(``sys.executable``, and the directory that holds the imported ``mwrecon``
first on its path), and serves one request at a time over its stdin and
stdout pipes: a pickled ``(fn, args)`` in, a pickled ``fn(*args)`` out.  It
exits when its stdin reaches end of file, which :func:`close` causes at
interpreter exit and the kernel causes when the caller dies.  Only this
package's own pickles cross the pipes.

The helper's allocator keeps what it freed between requests
(``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_`` in its environment
only): with glibc's defaults it trimmed its heap after every request and
re-faulted it on the next, 1660-3380 minor faults per training call, and
ran its share 35-70% slower than the caller ran the same share.

A caller that has run its own share polls for the replies for as long
again as its share took, and only then blocks on the pipes.  Blocking lets
the host run other work on the caller's CPU, and in the benchmark's
raki128 loop on a 2-vCPU virtual machine the stages after training then
took 5-20% more CPU time (``network.forward`` 1.15 against 1.25-1.38 ms
per call); polling kept them at the one-process times and took 1-3 ms
off each training call.

One caller at a time holds the helpers.  A caller that finds them busy
gets ``None`` back and does the work itself.  A helper that fails, dies or
is interrupted mid-request is discarded, so the next call starts a fresh
one.  See :mod:`mwrecon.network` for what runs here and when.
"""

from __future__ import annotations

import atexit
import os
import pickle
import select
import signal
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

_PACKAGE_PARENT = str(Path(__file__).resolve().parent.parent)
_BOOT = "import sys; sys.path.insert(0, sys.argv[1]); from mwrecon._helper import serve; serve()"
_ALLOCATOR = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}
_EXIT_WAIT_S = 10.0

_helpers: list = []  # live _Helper objects, started on first use
_lock = threading.Lock()


class HelperError(RuntimeError):
    """A helper process failed, or exited, before it replied."""


class _Helper:
    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _BOOT, _PACKAGE_PARENT],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env={**os.environ, **_ALLOCATOR},
        )
        self._reply_ready = None
        if hasattr(select, "poll"):  # not on Windows, whose select takes only sockets
            self._reply_ready = select.poll()
            self._reply_ready.register(self.proc.stdout, select.POLLIN)

    def send(self, fn, args) -> None:
        try:
            pickle.dump((fn, args), self.proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
            self.proc.stdin.flush()
        except OSError as exc:  # the helper is gone
            raise self._exited() from exc

    def receive(self, poll_until=0.0):
        """The reply, polled for until ``time.perf_counter()`` reaches ``poll_until``, then read."""
        if self._reply_ready is not None:
            while not self._reply_ready.poll(0) and time.perf_counter() < poll_until:
                pass
        try:
            ok, value = pickle.load(self.proc.stdout)
        except (EOFError, pickle.UnpicklingError) as exc:  # cut off mid-reply
            raise self._exited() from exc
        if not ok:
            raise HelperError(f"helper process {self.proc.pid} failed:\n{value}")
        return value

    def _exited(self) -> HelperError:
        return HelperError(f"helper process {self.proc.pid} exited with status {self.close()}")

    def close(self, kill=False):
        """End the helper, at once with ``kill``, and return its exit status."""
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:  # a flush into a pipe the helper no longer reads
                pass
        if kill:
            self.proc.kill()
        try:
            return self.proc.wait(_EXIT_WAIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()


def run(fn, arg_tuples):
    """``[fn(*args) for args in arg_tuples]``, the first here and the rest on helpers.

    Returns None, having run nothing, when another thread holds the helpers.
    ``fn`` and the arguments must pickle; an error raised by ``fn`` on a
    helper comes back as :class:`HelperError` with its traceback.
    """
    if not _lock.acquire(blocking=False):
        return None
    try:
        mine, *theirs = arg_tuples
        while len(_helpers) < len(theirs):
            _helpers.append(_Helper())
        used = _helpers[: len(theirs)]
        try:
            for helper, args in zip(used, theirs):
                helper.send(fn, args)
            start = time.perf_counter()
            first = fn(*mine)
            poll_until = 2 * time.perf_counter() - start  # as long again as this share took
            return [first] + [helper.receive(poll_until) for helper in used]
        except BaseException:
            # a pipe may hold a request or reply nobody will read: start afresh
            _close_unlocked(kill=True)
            raise
    finally:
        _lock.release()


@atexit.register
def close() -> None:
    """End every helper (they restart on next use); runs at interpreter exit."""
    with _lock:
        _close_unlocked()


def _close_unlocked(kill=False) -> None:
    while _helpers:
        _helpers.pop().close(kill)


def _forget() -> None:
    # a forked child drops its copies of the parent's pipes, so they close
    # when the parent closes them, and starts helpers of its own
    global _lock
    for helper in _helpers:
        helper.proc.stdin.close()
        helper.proc.stdout.close()
    _helpers.clear()
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)


def serve() -> None:
    """A helper's loop: answer each request on stdin on stdout until stdin ends."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller gets Ctrl-C; its exit ends this loop
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # a stray print must not land among the replies
    while True:
        try:
            fn, args = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = (True, fn(*args))
        except Exception:  # reported to the caller, which raises it; the helper keeps serving
            reply = (False, traceback.format_exc())
        pickle.dump(reply, replies, protocol=pickle.HIGHEST_PROTOCOL)
        replies.flush()
