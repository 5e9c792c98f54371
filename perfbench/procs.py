"""The benchmark's own process tree: finding it, stopping it, waiting
for it.

Ray's GCS, raylet and workers all descend from the process that calls
``ray.init``.  A worker whose raylet exits first is orphaned; by default
the kernel re-parents it to init, out of that process's sight, and it
can outlive the run.  ``become_subreaper`` makes the benchmark process
the new parent of such orphans instead, so ``stop_all`` finds every
process the run started, kills what does not exit on its own and waits
until each has ended.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import signal
import time

PR_SET_CHILD_SUBREAPER = 36


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:  # the process exited while we looked
            continue
        state, ppid = stat[stat.rindex(")") + 2 :].split()[:2]
        if state != "Z":  # an exited child nobody reaped holds no memory
            kids.setdefault(int(ppid), []).append(int(entry))
    return kids


def descendants(pid: int) -> list[int]:
    """Live (non-zombie) processes below ``pid``."""
    kids = _children_map()
    out, todo = [], list(kids.get(pid, []))
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(kids.get(p, []))
    return out


def become_subreaper() -> bool:
    """Orphaned descendants are re-parented to this process from now on."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _reap() -> bool:
    """Collects every child that has exited; True once no child is left."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            return False


def stop_all(grace: float = 20.0) -> None:
    """Gives the process tree ``grace`` seconds to exit on its own, kills
    what is left, and waits until every child has ended and is reaped."""
    me = os.getpid()
    deadline = time.monotonic() + grace
    while descendants(me) and time.monotonic() < deadline:
        _reap()
        time.sleep(0.1)
    deadline = time.monotonic() + 30
    while not _reap() and time.monotonic() < deadline:
        for pid in descendants(me):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        time.sleep(0.05)

