"""How fast this core runs now, to scale measured times to a fixed speed.

Imports only builtin modules (signal, which loads enum and collections,
only when the timer is started), so that a child process can take
samples before it times ``import mrlrc`` without loading anything mrlrc
imports.
"""

import gc
from time import perf_counter


class SpeedMeter:
    """Measures how fast this core runs now, to scale times to a fixed speed.

    On a shared host a core's speed drifts by a quarter or more within
    seconds, alike for mrlrc and for any other pure-Python loop, so more
    repetitions in a run do not average it out.  The meter times a small
    loop of the benchmark's own (Gaussian elimination of a fixed 16x16
    matrix modulo 65521, with the garbage collector off): in bursts
    outside measured intervals and, while started, every PERIOD_S on
    SIGALRM.  The loop's time is taken out of every measured interval it
    falls in, and an interval's time is multiplied by NOMINAL_S over the
    mean loop time around it.  While started the loop costs about 2 % of
    the run.
    """

    PERIOD_S = 0.02  # more samples inside short commands; 0.05 left them noisier
    # the loop time that scaled figures refer to: a fixed reference, not a speed
    # measured here
    NOMINAL_S = 0.0004
    MIN_SAMPLES = 20
    _P = 65521

    def __init__(self):
        x = 1
        self._matrix = []
        for _ in range(16):
            row = []
            for _ in range(16):
                x = x * 48271 % 2147483647  # MINSTD, a fixed sequence
                row.append(x % self._P)
            self._matrix.append(row)
        self.samples: list[tuple[float, float]] = []  # (start, end) of each loop
        self.factors: list[float] = []

    def _loop(self) -> None:
        p = self._P
        work = [row[:] for row in self._matrix]
        n = len(work)
        for c in range(n):
            piv = next(i for i in range(c, n) if work[i][c])
            work[c], work[piv] = work[piv], work[c]
            prow = work[c]
            inv = pow(prow[c], p - 2, p)
            for i in range(c + 1, n):
                row = work[i]
                f = row[c] * inv % p
                if f:
                    for t in range(c, n):
                        row[t] = (row[t] - f * prow[t]) % p

    def _sample(self, *_signal_args) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's objects is not the core's speed
        t0 = perf_counter()
        self._loop()
        self.samples.append((t0, perf_counter()))
        if collecting:
            gc.enable()

    def burst(self, count: int = MIN_SAMPLES // 2) -> None:
        """Take samples now, outside any measured interval."""
        for _ in range(count):
            self._sample()

    def start(self) -> None:
        import signal

        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def net(self, t0: float, t1: float) -> float:
        """Length of [t0, t1] without the meter's own loops inside it."""
        stolen = 0.0
        for s0, s1 in reversed(self.samples):
            if s1 <= t0:
                break
            stolen += max(0.0, min(s1, t1) - max(s0, t0))
        return t1 - t0 - stolen

    def factor(self, t0: float, t1: float) -> float:
        """Scale factor for [t0, t1]: the loops inside it, or the
        MIN_SAMPLES nearest ones when fewer fell inside."""
        def distance(s):
            mid = (s[0] + s[1]) / 2
            return max(t0 - mid, mid - t1, 0.0)

        near = sorted(self.samples, key=distance)
        inside = sum(1 for s in near if distance(s) == 0.0)
        chosen = near[:max(inside, self.MIN_SAMPLES)]
        mean = sum(s1 - s0 for s0, s1 in chosen) / len(chosen)
        f = self.NOMINAL_S / mean
        self.factors.append(f)
        return f
