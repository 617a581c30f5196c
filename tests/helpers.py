"""Helpers shared by the test modules: seeded random draws and the Weyl
basis without its last member."""

import numpy as np

from umebkit.bases import BasisSet, build_weyl_umeb


def random_complex(rng, shape):
    """Standard normal real parts, then imaginary parts, drawn from ``rng``."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_unitary(rng, n):
    """A Haar-random n x n unitary: the QR of a complex Gaussian matrix, with
    the phases of R's diagonal moved into Q."""
    q, r = np.linalg.qr(random_complex(rng, (n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def weyl_less(d, dprime):
    """Weyl(d, d') without its last member.  Every member lives on B levels
    0 to d - 1, so the product block of the complement, C^d (x) levels d to
    d' - 1, is too small for a witness at (3,5): certify searches."""
    amplitudes = build_weyl_umeb(d, dprime).amplitudes[:-1]
    return BasisSet(d, dprime, amplitudes, [True] * len(amplitudes))
