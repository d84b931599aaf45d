"""Worker processes that speak JSON lines over their stdio.

A :class:`WorkerProcess` is started in one of two ways: ``(argv, env)``
spawns a command, a callable is forked and runs as the child's body.  Either
way the child's fds 0-2 are pipes to this process: request lines go to its
stdin, response lines come from its stdout, and the end of its stderr is
kept for the loss message.  It is closed by stdin EOF, ``CLOSE_GRACE_S`` to
exit, SIGKILL and ``waitpid``.  The campaign farm's workers and the sharded
executor's shard workers are both such processes.  POSIX only; stdlib only,
so every layer can import it without a cycle.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import sys
import time
import traceback
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

#: Seconds a worker has to exit after stdin EOF before it is killed.
CLOSE_GRACE_S = 2.0

#: ``(argv, env)`` spawns the worker; a callable is forked as its body and
#: returns the child's exit code.
Command = Union[Tuple[List[str], Dict[str, str]], Callable[[], int]]


class WorkerLossError(RuntimeError):
    """A worker died or spoke garbage (as opposed to a run merely failing)."""


def _serve_forked(stdin_fd: int, stdout_fd: int, stderr_fd: int,
                  main: Callable[[], int]) -> None:
    """The forked child: run ``main`` on fds 0-2, leave by ``os._exit``.

    Every other inherited fd is closed: a sibling worker's stdin left open
    here would keep that worker from ever seeing the EOF that closes it.
    The child never returns into the parent's stack, flushes the parent's
    buffered streams or runs its ``atexit`` hooks.
    """
    code = 1
    try:
        for fd, target in ((stdin_fd, 0), (stdout_fd, 1), (stderr_fd, 2)):
            os.dup2(fd, target)
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        sys.stdin = open(0, encoding="utf-8", errors="replace", closefd=False)
        sys.stdout = open(1, "w", encoding="utf-8", closefd=False)
        sys.stderr = open(2, "w", encoding="utf-8", buffering=1, closefd=False)
        code = main()
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(code)


def _readable(fds: Iterable[int], timeout_s: Optional[float]) -> List[int]:
    """Those of ``fds`` readable (or at EOF) within ``timeout_s`` seconds."""
    with selectors.DefaultSelector() as selector:
        for fd in fds:
            selector.register(fd, selectors.EVENT_READ)
        return [key.fd for key, _ in selector.select(timeout_s)]


class WorkerProcess:
    """One live worker: request lines to its stdin, response lines from its
    stdout, the end of its stderr kept for the loss message.  The owner
    :meth:`read`\\ s whichever pipe is readable: a chatty worker never blocks."""

    def __init__(self, command: Command) -> None:
        spawn = isinstance(command, tuple)
        self.name = command[0][0] if spawn else "fork"
        child_in, self.stdin = os.pipe()
        self.stdout, child_out = os.pipe()
        self.stderr, child_err = os.pipe()
        child_fds = (child_in, child_out, child_err)
        try:
            if spawn:
                self.pid = os.posix_spawnp(
                    command[0][0], command[0], command[1],
                    file_actions=[(os.POSIX_SPAWN_DUP2, fd, target)
                                  for target, fd in enumerate(child_fds)])
            else:
                self.pid = os.fork()
                if self.pid == 0:
                    _serve_forked(*child_fds, command)
        except OSError as exc:
            for fd in (self.stdin, self.stdout, self.stderr):
                os.close(fd)
            raise WorkerLossError(
                f"cannot launch worker {self.name!r}: {exc}") from exc
        finally:
            for fd in child_fds:
                os.close(fd)
        #: Read ends not yet at EOF.
        self.open = {self.stdout, self.stderr}
        self.returncode: Optional[int] = None
        self._out = bytearray()
        self._err = b""

    def send(self, payload: Dict[str, object]) -> None:
        try:
            os.write(self.stdin, (json.dumps(payload) + "\n").encode())
        except OSError:
            pass  # already dead: the read side finds EOF and says why

    def read(self, fd: int) -> bool:
        """Take what a readable ``fd`` (stdout or stderr) holds; False at EOF."""
        data = os.read(fd, 1 << 16)
        if fd == self.stdout:
            self._out += data
        else:  # only stderr's end is kept: a flood costs no memory
            self._err = (self._err + data)[-4096:]
        if not data:
            self.open.discard(fd)
        return bool(data)

    def line(self) -> Optional[str]:
        """The next complete stdout line, once it has arrived."""
        if b"\n" not in self._out:
            return None
        line, _, self._out = self._out.partition(b"\n")
        return line.decode(errors="replace")

    def reply(self, timeout_s: Optional[float] = None,
              timeout_hint: str = "") -> str:
        """Wait for the next stdout line, reading stderr too; a loss if the
        worker exits first or stays silent for ``timeout_s`` seconds."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while (line := self.line()) is None:
            ready = _readable(self.open, None if deadline is None
                              else deadline - time.monotonic())
            if not ready:
                raise self.timed_out(timeout_s, timeout_hint)
            for fd in ready:
                if not self.read(fd) and fd == self.stdout:
                    raise self.exited()
        return line

    def exited(self) -> WorkerLossError:
        """Reap a worker whose stdout closed; the loss, with its stderr tail."""
        code = self.close()
        lines = [line.strip()[-300:] for line in
                 self._err.decode(errors="replace").splitlines() if line.strip()]
        return WorkerLossError(f"worker exited {code}: "
                               + (" | ".join(lines[-3:]) or "no stderr"))

    def timed_out(self, timeout_s: Optional[float],
                  hint: str = "") -> WorkerLossError:
        """Kill and reap a silent worker; the loss."""
        self.close(kill=True)
        return WorkerLossError(
            f"worker timed out after {timeout_s}s: {self.name}{hint}")

    def close(self, kill: bool = False) -> int:
        """Stdin EOF, ``CLOSE_GRACE_S`` to exit (none with ``kill``), then
        SIGKILL; drains stderr, reaps, and returns the exit code."""
        if self.returncode is None:
            if kill:
                os.kill(self.pid, signal.SIGKILL)
            os.close(self.stdin)
            deadline = time.monotonic() + CLOSE_GRACE_S
            # A worker's pipes reach EOF when it exits.
            while self.open and (left := deadline - time.monotonic()) > 0:
                for fd in _readable(self.open, left):
                    self.read(fd)
            if self.open:
                os.kill(self.pid, signal.SIGKILL)
            status = os.waitpid(self.pid, 0)[1]
            os.close(self.stdout)
            os.close(self.stderr)
            self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode
