"""A fixed reference kernel that measures how fast the host runs right now.

On a host shared with other virtual machines the same code runs 20 to 80 %
slower for minutes at a time, in CPU time as much as in wall time (the
slowdown does not show as steal time). The benchmark runs this kernel
before every timed operation and scales each operation's CPU time by
``REFERENCE_S`` over the kernel's CPU time around it, so that the
end-to-end times read as seconds on a host where the kernel takes
``REFERENCE_S``. A change to swldpc moves the operation and not the
kernel, so it shows in full.

The kernel never calls swldpc and must not change: its cost is the unit of
every end-to-end time. It mixes what the workloads do: about three parts
numpy message passing over a (3,6)-regular graph with 3072 edges, like the
decoder's flooding iteration, and one part pure-Python token parsing, like
alist parsing and bit-line I/O.
"""

from __future__ import annotations

import time

import numpy as np

# CPU seconds of one ``Reference.run()`` on the reference host (2-vCPU
# Intel Xeon KVM guest, Python 3.11, numpy 2.4) in a quiet spell.
REFERENCE_S = 0.005
# Reference runs on each side of a timed operation whose median scales it.
NEIGHBOURS = 5


class Reference:
    def __init__(self, checks: int = 512, dc: int = 6, iterations: int = 30, seed: int = 99):
        rng = np.random.default_rng(seed)
        edges = checks * dc
        self.variables = edges // 3
        self.var_of_edge = rng.permutation(np.repeat(np.arange(self.variables), 3))
        self.priors = rng.normal(2.0, 2.0, self.variables)
        self.shape = (checks, dc)
        self.iterations = iterations
        self.text = " ".join(str(x) for x in rng.integers(1, 10**6, 4000))
        self.expected = self._work()

    def _work(self):
        c2v = np.zeros(self.var_of_edge.size)
        posteriors = self.priors.copy()
        for _ in range(self.iterations):
            v2c = np.clip(posteriors[self.var_of_edge] - c2v, -25.0, 25.0)
            t = np.tanh(v2c * 0.5).reshape(self.shape)
            left = np.ones_like(t)
            np.cumprod(t[:, :-1], axis=1, out=left[:, 1:])
            right = np.ones_like(t)
            right[:, :-1] = np.cumprod(t[:, :0:-1], axis=1)[:, ::-1]
            c2v = 2.0 * np.arctanh(np.clip((left * right).ravel(), -0.999999, 0.999999))
            posteriors = self.priors + np.bincount(
                self.var_of_edge, weights=c2v, minlength=self.variables
            )
        checksum = 0
        for token in self.text.split():
            checksum += int(token) & 7
        return float(posteriors.sum()), checksum

    def run(self) -> float:
        """CPU seconds of one pass of the kernel."""
        start = time.process_time()
        result = self._work()
        elapsed = time.process_time() - start
        if result != self.expected:
            raise RuntimeError("reference kernel gave a different result")
        return elapsed


def scale_factors(reference_s: list[float]) -> np.ndarray:
    """For each position, REFERENCE_S over the median of the reference times
    within NEIGHBOURS positions of it."""
    ref = np.asarray(reference_s)
    return np.array([
        REFERENCE_S / np.median(ref[max(0, i - NEIGHBOURS): i + NEIGHBOURS + 1])
        for i in range(len(ref))
    ])
