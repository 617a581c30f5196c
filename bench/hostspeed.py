"""Host speed, sampled with a fixed calibration kernel.

On a shared virtual machine the speed of one core drifts by up to 1.7x, both
within seconds and for tens of seconds at a time, as other tenants load the
host.  A fixed kernel made of the numpy work umebkit does slows down by
nearly the same factor: 100 SVDs of a complex 5 x 7 matrix, as in the search,
and 200 products and 2 eigendecompositions of a Hermitian 49 x 49 matrix, as
in the complement and the certificate.  Over five runs of one seed, dividing
each operation's time by the kernel's slowness around it cut the quartile
spread of ``ops_per_s`` from 10 % to 3 % on paper-cli, from 18 % to 5 % on
certify-sweep and from 23 % to 8 % on search-hard.  A pure-Python loop in
the kernel tracked the last two worse, so it was left out.  The kernel calls
nothing in umebkit, so no change to the package moves it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Seconds of one kernel call on the reference machine in its fast state
#: (2-core x86-64 VM, Python 3.11, numpy 2.4, OpenBLAS on one thread).
REFERENCE_S = 0.0035


class HostSpeed:
    """Samples the calibration kernel; :meth:`slowness` is 1.0 at the
    reference speed and 1.5 on a host running 1.5 times slower."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        g = rng.normal(size=(49, 49)) + 1j * rng.normal(size=(49, 49))
        self._hermitian = g + g.conj().T
        self._vector = rng.normal(size=49) + 1j * rng.normal(size=49)

    def slowness(self) -> float:
        start = perf_counter()
        for _ in range(100):
            np.linalg.svd(self._small, full_matrices=False)
        for _ in range(200):
            self._hermitian @ self._vector
        for _ in range(2):
            np.linalg.eigh(self._hermitian)
        return (perf_counter() - start) / REFERENCE_S
