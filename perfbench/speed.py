"""Host-speed probe: report times at a fixed reference speed.

On a shared 2-core host the same resokit fit takes from 50 to 80 ms
depending on the minute, with no CPU steal recorded: the host's
effective speed drifts. A fixed kernel timed between the ops drifts
with it (op/probe ratio within about 1 percent across 5 s windows
where the raw op time moved by 40 percent), so every op time is scaled
by REFERENCE_S / (median probe time around that op). Scaled times read
as milliseconds on a host where the probe takes REFERENCE_S. The probe
uses numpy and plain Python only, never resokit, so no program change
can move it.
"""

import bisect
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 3.0e-3
# Probe once per this much op time: about 6 percent overhead.
EVERY_S = 0.05
# Most probes taken after one long op.
MAX_BURST = 5
# Probes on each side of an op that set its local speed.
WINDOW = 4


class SpeedProbe:
    """Probe times keyed by how many ops of the phase had completed."""

    def __init__(self):
        self.freqs = np.linspace(7.0e9, 7.01e9, 4001)
        self.z = np.exp(1j * self.freqs * 1e-9) * (1.0 + 0.1j)
        self.positions = []
        self.times = []

    def _kernel(self):
        # The mix resokit spends its time on: elementwise work and a thin
        # SVD on 4001-point arrays, then many calls on 4-element arrays.
        acc = 0.0
        for k in range(6):
            w = self.z * np.exp(2j * np.pi * self.freqs * (k * 1e-9))
            x = w.real - w.real.mean()
            y = w.imag - w.imag.mean()
            m = np.column_stack([x * x + y * y, x, y])
            acc += float(np.linalg.svd(m, full_matrices=False)[1][-1])
        p = np.ones(4)
        for _ in range(300):
            q = p * 1.0001 + 1e-3
            acc += float(np.sqrt(q @ q))
        return acc

    def sample(self, position):
        start = perf_counter()
        self._kernel()
        self.times.append(perf_counter() - start)
        self.positions.append(position)

    def scale_at(self, position):
        """REFERENCE_S over the median probe time near `position`."""
        k = bisect.bisect_left(self.positions, position)
        window = self.times[max(0, k - WINDOW):k + WINDOW + 1]
        return REFERENCE_S / statistics.median(window)

    def scale(self):
        """REFERENCE_S over the median of every probe."""
        return REFERENCE_S / statistics.median(self.times)
