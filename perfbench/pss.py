"""Peak summed PSS of the driver and every process it started.

Ray's GCS, raylet and workers all descend from the driver process, so
one walk of ``/proc`` finds them.  PSS (proportional set size) splits
shared pages between the processes that map them, so summing it over
processes does not count the object store's shared memory twice.
"""

from __future__ import annotations

import os
import threading

from procs import descendants


def pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class PssSampler:
    """Samples the process tree's summed PSS every ``interval`` seconds
    on a background thread; ``peak_mb`` is the largest sample.  One
    sample reads ``smaps_rollup`` of ~10 Ray processes, ~20 ms of
    kernel time, so the rate is kept low to stay out of the latencies
    being measured."""

    def __init__(self, interval: float = 1.0):
        self.interval = interval
        self.peak_kb = 0
        self.samples = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self) -> None:
        me = os.getpid()
        total = sum(pss_kb(p) for p in [me, *descendants(me)])
        self.peak_kb = max(self.peak_kb, total)
        self.samples += 1

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "PssSampler":
        self.sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0
