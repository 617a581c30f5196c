"""Helpers shared by the test modules: the certify-sweep shapes, seeded
random draws, the Weyl basis without its last member, the list form of a
file document and a recorder of ``numpy.linalg`` calls."""

import sys
from typing import NamedTuple

import numpy as np

from umebkit.bases import BasisSet, build_weyl_umeb

#: Every (d, d') with 2 <= d < d' and d * d' <= 49, in the order of the
#: certify-sweep benchmark workload's ``sweep_shapes()``.
SWEEP_SHAPES = [(d, dp) for d in range(2, 8) for dp in range(d + 1, 25) if d * dp <= 49]


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


def listed(doc: dict) -> dict:
    """``doc`` with each array in it turned into the list form its file
    holds: nested ``[real, imag]`` pairs.  It uses numpy and the stdlib
    only, never the package's writer, so ``json.dumps(listed(doc))`` is an
    independent reference for the writer's text."""
    return {key: np.stack([value.real, value.imag], -1).tolist()
            if isinstance(value, np.ndarray) else value for key, value in doc.items()}


class LinalgCall(NamedTuple):
    """One recorded ``numpy.linalg`` call: the function's name, the shape of
    its first argument, its keyword arguments, and the module and function
    that called it."""
    name: str
    shape: tuple
    kwargs: dict
    module: str
    function: str


def record_linalg(monkeypatch, *names) -> list:
    """Wrap each named ``numpy.linalg`` function so that every call appends
    a :class:`LinalgCall` to the returned list before it runs: a call that
    raises is recorded too.  The caller is the first frame past any
    ``<genexpr>``, ``<listcomp>`` and the like.  Names this numpy lacks are
    skipped (``svdvals`` is new in numpy 2.0)."""
    calls = []
    for name in names:
        real = getattr(np.linalg, name, None)
        if real is None:
            continue

        def recording(a, *args, real=real, name=name, **kwargs):
            caller = sys._getframe(1)
            while caller.f_code.co_name.startswith("<"):
                caller = caller.f_back
            calls.append(LinalgCall(name, np.shape(a), kwargs,
                                    caller.f_globals["__name__"], caller.f_code.co_name))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls
