"""Host-speed probe: rescales measured times to a reference host speed.

The benchmark shares a few vCPUs with other tenants.  Their load slows this
process by up to 2x, changing within a second and over minutes.  Mostly
the process runs slower, which shows in CPU time as much as in wall time;
at times the host takes the vCPU away (steal), which shows in wall time
only.  So a small fixed kernel of interpreter work and small numpy calls,
like the package's scalar paths but with no hyperflow code in it, is timed
in wall time and in thread CPU time: on a timer every ``INTERVAL_S`` while
armed, and on demand.  ``scales`` gives ``REF_S`` over the kernel's mean
time, once per clock, so a wall or CPU time multiplied by its scale reads
as it would at the speed where the kernel takes ``REF_S``.  The kernel's
own times are also taken out of the interval it interrupted.

The probe runs while ``hyperflow`` is imported.  It imports numpy first,
which ``hyperflow`` would import anyway, so the set-up time it measures
from interpreter spawn is the same.
"""

import signal
from time import perf_counter, thread_time

import numpy as np

REF_S = 0.0008  # about the kernel's time on an unloaded core of a 2-vCPU VM
INTERVAL_S = 0.025

_V = np.linspace(0.1, 1.0, 5)


def _kernel() -> float:
    s = 0.0
    for i in range(200):
        x = _V * (1.0 + i * 1e-6)
        s += float(x[:-1] @ x[:-1] - x[-1] * x[-1])
        s += sum(k * 0.5 for k in range(8))
    return s


class SpeedProbe:
    def __init__(self):
        self.armed = False
        self.busy = False
        self.count = 0
        self.cpu = 0.0  # thread CPU time of every kernel run
        self.wall = 0.0  # wall time of every kernel run
        signal.signal(signal.SIGALRM, self._on_alarm)

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            w0 = perf_counter()
            c0 = thread_time()
            _kernel()
            self.cpu += thread_time() - c0
            self.wall += perf_counter() - w0
            self.count += 1

    def _on_alarm(self, signum, frame) -> None:
        # A handler can be entered again from inside itself; the inner
        # kernel would then be counted inside the outer one's times.
        if self.armed and not self.busy:
            self.busy = True
            try:
                self.sample()
            finally:
                self.busy = False

    def arm(self) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.armed = False

    def state(self) -> tuple[int, float, float]:
        """Kernels run so far, their CPU time and their wall time."""
        return self.count, self.cpu, self.wall


def scales(start: tuple[int, float, float], end: tuple[int, float, float]) -> tuple[float, float]:
    """``REF_S`` over the mean kernel wall and CPU time between two ``state()`` readings."""
    n = end[0] - start[0]
    return REF_S * n / (end[2] - start[2]), REF_S * n / (end[1] - start[1])
