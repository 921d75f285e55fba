"""Fixed reference kernels: how fast the shared machine runs right now.

On a shared 2-CPU machine the speed of the same code drifts by 10-40% over
tens of seconds, with no other process in the container (see README.md). A
run times a reference kernel right before its first round and right after
every round, and reports each round at the kernel's nominal speed,
``round_ms * nominal_ms / kernel_ms`` with ``kernel_ms`` the mean of the
kernel times on either side of the round; drift that slows both cancels.
Each workload uses the kernel whose work is most like its rounds. No kernel
calls rhokit. Before each kernel run a fixed buffer far larger than the L2
cache is rewritten, so that what the round left in the caches barely moves
the kernel (README.md gives the measurement).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPS = 3  # kernel runs per measurement; the median counts
EXTRA_REP_EVERY_MS = 500  # one more run per this much round time
FLUSH_BYTES = 32 << 20  # eight times the 4 MiB per-core L2


class Reference:
    """``compute``: small LAPACK calls, tiny numpy calls from Python and plain
    interpreter work (``construct``, ``cli_pipeline``). ``memory``: weighted
    outer products summed into a 5.3 MB complex array, the pattern of
    ``measure_ancilla`` at dim 24 (``steer_sweep``).

    Every buffer is made and written once, here, so the kernel adds a
    constant ``resident_mb`` to the process's RSS from then on.
    """

    NOMINAL_MS = {"compute": 8.5, "memory": 6.0}  # about each kernel's time on a quiet machine

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
        self.h = h + np.conj(h).T
        self.kets = rng.normal(size=(64, 24)) + 1j * rng.normal(size=(64, 24))
        self.kernel = {"compute": self.compute, "memory": self.memory}[kind]
        self.nominal_ms = self.NOMINAL_MS[kind]
        self.flush = np.ones(FLUSH_BYTES // 8)
        self.buffers = [self.flush]
        if kind == "memory":
            self.pair = rng.normal(size=576) + 1j * rng.normal(size=576)
            self.dense = np.ones((576, 576), dtype=complex)
            self.term = np.ones_like(self.dense)
            self.buffers += [self.dense, self.term]

    @property
    def resident_mb(self) -> float:
        return sum(b.nbytes for b in self.buffers) / 2**20

    def compute(self) -> float:
        acc = 0.0
        for _ in range(20):
            w, _ = np.linalg.eigh(self.h)
            acc += float(w[0])
            for i in range(64):
                acc += abs(np.vdot(self.kets[i], self.kets[i - 1]))
            acc += float(np.abs(self.h @ self.h).max())
        n = 0
        for i in range(50000):
            n += i * i % 7
        return acc + n

    def memory(self) -> float:
        self.dense.fill(0.0)
        for _ in range(3):
            np.outer(self.pair, np.conj(self.pair), out=self.term)
            self.term *= 0.5
            self.dense += self.term
        return float(self.dense[0, 0].real)

    def ms(self, round_ms: float) -> float:
        """Median kernel time in ms, taken right after a round of ``round_ms``
        (0 before the first round)."""
        samples = []
        for rep in range(REPS + int(round_ms // EXTRA_REP_EVERY_MS)):
            self.flush.fill(rep)
            t0 = time.perf_counter()
            self.kernel()
            samples.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(samples)
