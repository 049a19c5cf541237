"""Worker-process supervision for the fleet.

:class:`WorkerProcess` wraps one subprocess with the three things a
supervisor needs and ``subprocess.run`` does not give:

* a **wall-clock deadline** — a worker that runs past it is killed,
  not waited on forever;
* a **heartbeat file** — a worker that is alive-but-wedged (stuck
  syscall, livelock) stops touching its heartbeat and is killed even
  though the wall deadline has not passed;
* **terminate-then-kill escalation** — SIGTERM first so the worker can
  flush, SIGKILL if it lingers.

The fleet supervisor drives one :class:`WorkerProcess` per shard so it
can watch many workers at once.
"""

from __future__ import annotations

import os
import subprocess
import time
from typing import List, Optional


def tail(text: str, lines: int = 25) -> str:
    """The last ``lines`` lines of ``text`` (diagnostics excerpts)."""
    parts = text.rstrip().splitlines()
    if len(parts) <= lines:
        return text.rstrip()
    return "\n".join(["... (truncated) ..."] + parts[-lines:])


class WorkerProcess:
    """One supervised subprocess: deadline, heartbeat, escalated kill."""

    def __init__(
        self,
        cmd: List[str],
        *,
        env: Optional[dict] = None,
        cwd: Optional[str] = None,
        stdout_path: Optional[str] = None,
        stderr_path: Optional[str] = None,
        timeout: Optional[float] = None,
        heartbeat_path: Optional[str] = None,
        heartbeat_timeout: Optional[float] = None,
    ) -> None:
        self.cmd = list(cmd)
        self.env = env
        self.cwd = cwd
        self.stdout_path = stdout_path
        self.stderr_path = stderr_path
        self.timeout = timeout
        self.heartbeat_path = heartbeat_path
        self.heartbeat_timeout = heartbeat_timeout
        self.proc: Optional[subprocess.Popen] = None
        self.started_at: float = 0.0
        self._stdout_fh = None
        self._stderr_fh = None

    # ------------------------------------------------------------------

    def spawn(self) -> None:
        if self.heartbeat_path is not None:
            # The launch itself counts as the first beat, so a worker
            # that dies before its first write is judged by the wall
            # deadline, not by a missing file.
            with open(self.heartbeat_path, "w") as fh:
                fh.write("spawned\n")
        self._stdout_fh = (
            open(self.stdout_path, "wb") if self.stdout_path else subprocess.DEVNULL
        )
        self._stderr_fh = (
            open(self.stderr_path, "wb") if self.stderr_path else subprocess.DEVNULL
        )
        self.proc = subprocess.Popen(
            self.cmd,
            env=self.env,
            cwd=self.cwd,
            stdout=self._stdout_fh,
            stderr=self._stderr_fh,
        )
        self.started_at = time.monotonic()

    def poll(self) -> Optional[int]:
        assert self.proc is not None
        code = self.proc.poll()
        if code is not None:
            self._close_files()
        return code

    def expired(self, now: Optional[float] = None) -> Optional[str]:
        """A reason string if this worker should be killed, else None."""
        now = time.monotonic() if now is None else now
        if self.timeout is not None and now - self.started_at > self.timeout:
            return f"wall-clock timeout ({self.timeout:.1f}s)"
        if (
            self.heartbeat_path is not None
            and self.heartbeat_timeout is not None
        ):
            try:
                stale = now_wall() - os.path.getmtime(self.heartbeat_path)
            except OSError:
                stale = None
            if stale is not None and stale > self.heartbeat_timeout:
                return f"heartbeat stale for {stale:.1f}s"
        return None

    def kill(self, grace: float = 1.0) -> None:
        """SIGTERM, wait up to ``grace`` seconds, then SIGKILL."""
        assert self.proc is not None
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._close_files()

    def _close_files(self) -> None:
        for fh in (self._stdout_fh, self._stderr_fh):
            if fh is not None and fh is not subprocess.DEVNULL:
                try:
                    fh.close()
                except OSError:
                    pass
        self._stdout_fh = self._stderr_fh = None

    # ------------------------------------------------------------------

    def read_output(self) -> "tuple[str, str]":
        """Captured (stdout, stderr) so far, decoded tolerantly."""

        def slurp(path: Optional[str]) -> str:
            if not path:
                return ""
            try:
                with open(path, "rb") as fh:
                    return fh.read().decode("utf-8", "replace")
            except OSError:
                return ""

        return slurp(self.stdout_path), slurp(self.stderr_path)


def now_wall() -> float:
    """Wall time for heartbeat-mtime comparisons (mockable in tests)."""
    return time.time()
