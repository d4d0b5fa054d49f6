"""Host speed, read from a fixed reference task timed beside the work.

The host the benchmark runs on is a shared VM whose single-thread speed
changes from one second to the next, and whose mix of fast and slow
seconds changes over minutes (perfbench/NOTES.md has the measurements).
So every job is sampled with `reference_task`, a fixed piece of pure-Python work that does not touch
`asphere`: runs of it just before and just after the work, and short
bursts of it during the work, every PERIOD_S of wall time, from a SIGALRM
handler.  The work's own time is its wall time less those bursts, and it
is reported at a fixed reference speed:

    own time * REFERENCE_TASK_S / (mean time of one reference task around and in it)

that is, the seconds the work would take on a host where one reference
task takes REFERENCE_TASK_S.  A change to the program moves its own time
and leaves the reference task alone, so it shows in full; a slow stretch
of the host moves both.  Samples taken only at the edges of a job of
several seconds miss the changes of speed inside it, hence the bursts.
Set-ups are taken to the reference speed found over all of a run's jobs.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import time

REFERENCE_TASK_S = 0.0004  # about the median on the 2-vCPU Xeon VM in NOTES.md
SHARE = 0.05  # reference time on each side of a piece of work, as a share of its time
MIN_TASKS = 2
PERIOD_S = 0.02  # wall time between bursts inside the work
BURST_TASKS = 2  # reference tasks per burst: about 4% of the work's time


def reference_task() -> int:
    """Fixed pure-Python work of the kinds the program does: small-integer
    row operations, dict look-ups on tuple keys, string joins and splits."""
    n = 14
    m = [[(i * 7 + j * 13) % 11 - 5 + (i == j) * 9 for j in range(n)] for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            q = m[r][c] // (m[c][c] or 1)
            if q:
                m[r] = [a - q * b for a, b in zip(m[r], m[c])]
    table: dict[tuple[int, int], int] = {}
    for i in range(600):
        table[(i % 37, i % 23)] = table.get((i % 23, i % 37), i) + 1
    text = " ".join(str(k) for k in range(300))
    return len(text.split()) + len(table) + m[-1][-1]


class Reference:
    """Reference tasks run around and inside one piece of work: their
    seconds and count, and the seconds the bursts took from the work."""

    __slots__ = ("seconds", "tasks", "paused")

    def __init__(self):
        self.seconds = 0.0
        self.tasks = 0
        self.paused = 0.0

    def run(self, seconds: float, tasks: int = MIN_TASKS) -> float:
        """Run the reference task for about `seconds`, at least `tasks`
        times; returns the time taken.  A collection that falls due meanwhile
        waits for the program's work it belongs to: the collector is off."""
        clock = time.perf_counter
        collecting = gc.isenabled()
        gc.disable()
        start = clock()
        done = 0
        while done < tasks or clock() - start < seconds:
            reference_task()
            done += 1
        spent = clock() - start
        if collecting:
            gc.enable()
        self.seconds += spent
        self.tasks += done
        return spent

    def _burst(self, signum, frame) -> None:
        self.paused += self.run(0.0, BURST_TASKS)

    @contextlib.contextmanager
    def sampling(self):
        """Bursts of the reference task every PERIOD_S while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def own(self, elapsed: float) -> float:
        """The work's own share of a wall time measured around it."""
        return elapsed - self.paused

    def scale(self, elapsed: float) -> float:
        """The work's own time at the reference speed."""
        return self.own(elapsed) * REFERENCE_TASK_S * self.tasks / self.seconds

