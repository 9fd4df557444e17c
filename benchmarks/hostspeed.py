"""A fixed probe of the speed the host gives this process.

On a shared host the speed a process gets drifts with what other tenants
run: on a 2-vCPU x86_64 VM a table row took 1.45 times as long for tens of
seconds at a time, and a 50-s run can be slow from start to end.  The
benchmark runs this probe before and after every phase of a row and scales
the phase's wall time by NOMINAL_S over the mean of the two probe times
(``rows.end_to_end_samples``), which takes most of that drift out.

The probe does the three kinds of work a row is made of -- interpreted
Python, sparse matrix-vector products on vectors of 10,000, and small sparse
products over a list of blocks -- on fixed data.  It calls nothing in sgfem,
so no change to the program can move it.
"""
from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# probe time in the fast state of a 2-vCPU Xeon (2.1 GHz) VM with one BLAS
# thread, its tenth percentile over 1,100 probes; on a host of that speed a
# scaled time equals the wall time
NOMINAL_S = 0.012


class Probe:
    """One call runs the fixed work once and returns its wall seconds."""

    def __init__(self):
        n = 100
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        self.laplacian = (sp.kron(t, sp.eye(n)) + sp.kron(sp.eye(n), t)).tocsr()
        rng = np.random.default_rng(0)
        self.vector = rng.standard_normal(n * n)
        self.blocks = [sp.random(121, 121, density=0.07, random_state=i, format="csr")
                       for i in range(20)]
        self.rows = rng.standard_normal((20, 121))

    def __call__(self) -> float:
        start = time.perf_counter()
        s = 0
        for i in range(60000):
            s += i * i % 7
        y = self.vector
        for _ in range(60):
            y = self.laplacian @ y
            y = y / np.linalg.norm(y)
        for _ in range(25):
            out = np.zeros_like(self.rows)
            for i, block in enumerate(self.blocks):
                out[i] += block @ self.rows[i]
                out[i % 7] -= 0.5 * out[i]
        return time.perf_counter() - start
