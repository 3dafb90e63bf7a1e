"""Machine-speed calibration for a shared host.

On a virtual machine that shares its host, the speed of the same code drifts
by 20-80% within seconds as other tenants load the host, and a run's median
moves with it.  The drift slows different code nearly alike: the ratio of
the workload's time to a fixed reference kernel's time, taken alternately,
stays within a few percent while each moves by tens of percent.  So a
`Calibrator` runs that kernel from a timer signal INTERVAL_S of wall time
after each previous run, keeps the kernel's time out of every measured
interval (the "workload clock"), and converts an interval to *reference
seconds*: what it would have read with the machine at reference speed, the
speed at which the kernel takes REFERENCE_S.  The kernel does not touch the
package under test, so a change to the package moves reference seconds in
the same proportion as raw ones.

The kernel mixes what the package's hot paths do: small complex numpy
arrays, a 4x4 Hermitian eigensolve, Python loops, dicts and string
formatting.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# median kernel time on an Intel Xeon (Sapphire Rapids, 2.1 GHz) KVM guest
# with 2 vCPUs, Python 3.11, numpy 2.4
REFERENCE_S = 0.003
INTERVAL_S = 0.05
SMOOTHING = 5  # kernel samples in the running median that sets each interval's speed

_H = np.array([[2.0, 1 - 1j, 0.5j, 0.0],
               [1 + 1j, 1.0, 0.25, -0.5j],
               [-0.5j, 0.25, 0.5, 1.0],
               [0.0, 0.5j, 1.0, -1.0]])


def kernel_seconds() -> float:
    """Run the reference kernel once; return its wall time."""
    start = time.perf_counter()
    acc = 0.0
    seen: dict[str, float] = {}
    for k in range(150):
        v = np.array([1.0, 0.5j, -0.25, 0.125 * k], dtype=complex)
        m = _H + np.outer(v, v.conj())
        acc += float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
        acc += float(abs(v[0] * v[3] - v[1] * v[2]))
        seen[f"{k}:{acc:.12g}"] = acc
    if len(seen) != 150 or acc != acc:
        raise ArithmeticError("reference kernel went wrong")
    return time.perf_counter() - start


class Calibrator:
    """Samples the kernel from SIGALRM while started, INTERVAL_S of wall
    time after the previous sample ended.  The timer is re-armed only once a
    sample is done, so however slow the host gets, the kernel takes at most
    its own share of the time and the workload keeps running between samples.

    `clock()` is wall time minus all kernel time, so intervals read on it
    exclude calibration.  After `stop()`, `reference_seconds(a, b)` converts
    a workload-clock interval by integrating the speed that the samples
    around it measured.  Main thread only; one instance started at a time.
    """

    def __init__(self):
        self.paused = 0.0
        self.samples: list[tuple[float, float]] = []  # (workload clock, kernel s)
        self._busy = False
        self._running = False
        self._previous = None
        self._curve = None

    def clock(self) -> float:
        # a sample taken between reading the time and reading `paused` would
        # subtract its kernel time from a reading that does not contain it
        while True:
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:
                return now - paused

    def sample(self) -> None:
        if self._busy:  # an alarm that arrived while the kernel ran
            return
        self._busy = True
        try:
            start = time.perf_counter()
            k = kernel_seconds()
            self.samples.append((start - self.paused, k))
            self.paused += time.perf_counter() - start
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        for _ in range(SMOOTHING):  # the end of the last interval gets samples too
            self.sample()

    def _speed_curve(self):
        if self._curve is None or self._curve[0].size != len(self.samples):
            # one C-level copy: the timer may append a sample between two
            # reads of the live list, which would give w and k different lengths
            samples = list(self.samples)
            if not samples:
                raise RuntimeError("no calibration samples")
            w = np.array([s[0] for s in samples])
            k = np.array([s[1] for s in samples])
            half = SMOOTHING // 2
            smooth = np.array([np.median(k[max(0, i - half):i + half + 1]) for i in range(len(k))])
            scale = REFERENCE_S / smooth  # applies to the interval ending at w[i]
            cum = np.concatenate(([0.0], np.cumsum(np.diff(w) * scale[1:])))
            self._curve = (w, scale, cum)
        return self._curve

    def _integral(self, x: float) -> float:
        w, scale, cum = self._speed_curve()
        i = int(np.searchsorted(w, x))  # w[i-1] < x <= w[i]
        if i == 0:
            return (x - w[0]) * scale[0]
        if i == len(w):
            return cum[-1] + (x - w[-1]) * scale[-1]
        return cum[i - 1] + (x - w[i - 1]) * scale[i]

    def scale_at(self, x: np.ndarray) -> np.ndarray:
        """Reference seconds per workload second at workload-clock times x,
        from the samples taken so far."""
        w, scale, _ = self._speed_curve()
        return scale[np.minimum(np.searchsorted(w, x), len(w) - 1)]

    def reference_seconds(self, start: float, end: float) -> float:
        """Workload-clock interval [start, end] in reference seconds."""
        return self._integral(end) - self._integral(start)

    def median_scale(self) -> float:
        """Reference seconds per workload second, median over all samples."""
        return REFERENCE_S / float(np.median([k for _, k in self.samples]))
