"""JSON on-disk formats for states and bases.

Two formats, both UTF-8 JSON with an explicit tag:

- ``umeb-state/1``: one bipartite state; amplitudes as [real, imag] pairs in
  the flat A-major index order.
- ``umeb-basis/1``: an ordered list of such amplitude lists plus optional
  labels and per-state entanglement flags (recomputed when absent).

Floats are written as Python's shortest round-trip decimals, so a
save/load cycle reproduces every double bit-for-bit.  On load, a state whose
norm is off by more than 1e-6 is rejected; one off by more than 1e-9 is
renormalized with a warning.  Files with ``d*dprime`` above 1024 are refused:
the package is dense and desk-scale, and later stages build
``d*dprime x d*dprime`` matrices.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

from .bases import BasisSet, gram_matrix
from .errors import FileFormatError
from .states import BipartiteState, _norm_errors
from .tolerances import ADMIT_TOL, MAX_SPACE_DIM, ME_TOL, NORM_TOL, cite

__all__ = [
    "STATE_FORMAT",
    "BASIS_FORMAT",
    "state_to_obj",
    "save_state",
    "load_state",
    "basis_to_obj",
    "save_basis",
    "load_basis",
]

STATE_FORMAT = "umeb-state/1"
BASIS_FORMAT = "umeb-basis/1"


def _amplitudes_to_pairs(amp: np.ndarray) -> list:
    """``[real, imag]`` float pairs, nested like ``amp`` (any shape)."""
    return np.stack([amp.real, amp.imag], -1).tolist()


def _pairs_to_amplitudes(pairs, expected_len: int, what: str) -> np.ndarray:
    if not isinstance(pairs, list) or len(pairs) != expected_len:
        raise FileFormatError(f"{what}: expected {expected_len} amplitude pairs")
    for k, pair in enumerate(pairs):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise FileFormatError(f"{what}: amplitude {k} is not a [real, imag] pair")
    try:
        amp = np.array(pairs, dtype=float).view(complex).reshape(-1)
    except OverflowError as exc:  # an integer beyond the range of a double
        raise FileFormatError(f"{what}: amplitude out of floating-point range") from exc
    if not np.all(np.isfinite(amp)):
        raise FileFormatError(f"{what}: non-finite amplitude")
    return amp


def _admit_norm(amp: np.ndarray, what: str) -> np.ndarray:
    # judged by the norm error BipartiteState and BasisSet judge by, so a
    # vector kept as it is is one they admit
    err = _norm_errors(amp)
    if err > ADMIT_TOL:
        raise FileFormatError(
            f"{what}: norm {np.linalg.norm(amp):.9f} is off by more than {cite(ADMIT_TOL)}"
        )
    if err > NORM_TOL:
        warnings.warn(f"{what}: norm off by {err:.3e}; renormalizing")
        return amp / np.linalg.norm(amp)
    return amp


def _load_doc(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    return doc


def _check_dims(doc: dict, path) -> tuple[int, int]:
    d, dprime = doc.get("d"), doc.get("dprime")
    if not (isinstance(d, int) and isinstance(dprime, int) and 2 <= d <= dprime):
        raise FileFormatError(f"{path}: invalid dimensions d={d!r}, dprime={dprime!r}")
    if d * dprime > MAX_SPACE_DIM:
        raise FileFormatError(
            f"{path}: d*dprime = {d * dprime} exceeds the limit of {MAX_SPACE_DIM}"
        )
    return d, dprime


def state_to_obj(psi: BipartiteState) -> dict:
    """JSON-ready dict for a single state (the ``umeb-state/1`` document)."""
    return {
        "format": STATE_FORMAT,
        "d": psi.d,
        "dprime": psi.dprime,
        "amplitudes": _amplitudes_to_pairs(psi.amplitudes),
    }


def save_state(path, psi: BipartiteState) -> None:
    """Write one state as an ``umeb-state/1`` JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_obj(psi), fh, indent=2)
        fh.write("\n")


def load_state(path) -> BipartiteState:
    """Read an ``umeb-state/1`` file, applying the norm admission rule."""
    doc = _load_doc(path)
    if doc.get("format") != STATE_FORMAT:
        raise FileFormatError(f"{path}: format tag is not {STATE_FORMAT!r}")
    d, dprime = _check_dims(doc, path)
    amp = _pairs_to_amplitudes(doc.get("amplitudes"), d * dprime, f"{path}")
    return BipartiteState(d, dprime, _admit_norm(amp, f"{path}"))


def basis_to_obj(basis: BasisSet) -> dict:
    """JSON-ready dict for a basis (the ``umeb-basis/1`` document)."""
    obj = {
        "format": BASIS_FORMAT,
        "d": basis.d,
        "dprime": basis.dprime,
        "states": _amplitudes_to_pairs(basis.amplitudes),
        "me_flags": list(basis.me_flags),
    }
    if basis.labels is not None:
        obj["labels"] = list(basis.labels)
    return obj


def save_basis(path, basis: BasisSet) -> None:
    """Write a basis as an ``umeb-basis/1`` JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(basis_to_obj(basis), fh, indent=2)
        fh.write("\n")


def load_basis(path, check_orthonormal: bool = True) -> BasisSet:
    """Read an ``umeb-basis/1`` file.

    Per-state norms follow the admission rule; missing entanglement flags are
    recomputed.  With ``check_orthonormal`` (the default) a Gram deviation
    beyond 1e-6 is a load error — the verification command turns this off,
    since measuring that deviation is its whole job.
    """
    doc = _load_doc(path)
    if doc.get("format") != BASIS_FORMAT:
        raise FileFormatError(f"{path}: format tag is not {BASIS_FORMAT!r}")
    d, dprime = _check_dims(doc, path)
    raw_states = doc.get("states")
    if not isinstance(raw_states, list):
        raise FileFormatError(f"{path}: missing states array")
    rows = []
    for k, pairs in enumerate(raw_states):
        what = f"{path}: state {k}"
        rows.append(_admit_norm(_pairs_to_amplitudes(pairs, d * dprime, what), what))
    k = len(rows)

    labels = doc.get("labels")
    if labels is not None:
        if not (isinstance(labels, list) and len(labels) == k
                and all(isinstance(x, str) for x in labels)):
            raise FileFormatError(f"{path}: labels must be {k} strings")
    flags = doc.get("me_flags")
    if flags is not None and not (isinstance(flags, list) and len(flags) == k
                                  and all(isinstance(x, bool) for x in flags)):
        raise FileFormatError(f"{path}: me_flags must be {k} booleans")

    amplitudes = np.array(rows, dtype=complex).reshape(k, d * dprime)
    basis = BasisSet(d, dprime, amplitudes, me_flags=flags or [False] * k, labels=labels)
    if flags is None:
        basis.me_flags = [bool(dev <= ME_TOL) for dev in basis.me_deviations()]
    if check_orthonormal and k:
        dev = np.abs(gram_matrix(basis) - np.eye(k)).max()
        if dev > ADMIT_TOL:
            raise FileFormatError(
                f"{path}: states are not orthonormal (Gram deviation {dev:.3e})"
            )
    return basis
