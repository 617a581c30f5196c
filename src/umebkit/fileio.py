"""JSON on-disk formats for states and bases.

Two formats, both UTF-8 JSON with an explicit tag:

- ``umeb-state/1``: one bipartite state; amplitudes as [real, imag] pairs in
  the flat A-major index order.
- ``umeb-basis/1``: an ordered list of such amplitude lists plus optional
  labels and per-state entanglement flags (recomputed when absent).

A document holds its amplitudes as numpy arrays.  Its file is the
:func:`_dumps` text plus a newline: ``json.dumps(doc, indent=2)`` of the
document with each array in its list form.  Floats are Python's shortest
round-trip decimals, so a save/load cycle reproduces every double
bit-for-bit.  Both formats are read by one reader, in one order: a JSON
object, the format tag, ``d``, ``dprime`` and the 1024 cap on their product
(:func:`_open`), then the amplitude pairs, their finiteness and the norms
(:func:`_read_states`, which reads a state file as a one-state list).  A
state file's faults are named by its path, a basis file's by ``state i``.
A state whose norm is off by more than 1e-6 is rejected; one off by more
than 1e-9 is renormalized with a warning.  The cap holds because the package
is dense and desk-scale: later stages build ``d*dprime x d*dprime`` matrices.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import fields, is_dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from math import inf

import numpy as np

from .bases import BasisSet
from .errors import FileFormatError
from .linalg import _gram_deviation
from .states import BipartiteState, _me_deviations, _norm_errors
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


def _array_body(a: np.ndarray, nl: str) -> str:
    """The body of a non-empty float64 array ``a`` with ``ndim >= 1`` and
    finite entries.

    The body is what :func:`_encode` puts between the brackets: the items'
    texts, each after the newline-indent ``nl``.  It is built bottom-up at C
    level, from ``a.shape`` and ``float.__repr__`` over the entries, with one
    ``str.join`` per list: the brackets and indents of the lists inside move
    into the separators that join them.
    """
    shape = a.shape
    # (open, close, sep) of the lists at each depth, deepest first: a list's
    # text is "[" + open + sep.join(its items) + close + "]"
    indents = [nl + "  " * depth for depth in range(len(shape))]
    texts = map(float.__repr__, a.ravel().tolist())
    open_, close, sep = "", "", "," + indents[-1]
    for depth in range(len(shape) - 1, 0, -1):
        texts = map(sep.join, zip(*[texts] * shape[depth]))
        outer, inner = indents[depth - 1], indents[depth]
        open_, close, sep = ("[" + inner + open_, close + outer + "]",
                             close + outer + "]," + outer + "[" + inner + open_)
    return open_ + sep.join(texts) + close


def _encode(o, nl: str, out: list) -> None:
    """Append the text of ``o``, nested at the newline-indent ``nl``, to
    ``out`` piece by piece; :func:`_dumps` joins the pieces once."""
    append = out.append
    if isinstance(o, str):
        append(_quote(o))
    elif o is None:
        append("null")
    elif o is True:
        append("true")
    elif o is False:
        append("false")
    elif isinstance(o, int):
        append(int.__repr__(o))
    elif isinstance(o, float):
        if o != o:
            append("NaN")
        elif o == inf:
            append("Infinity")
        else:
            append("-Infinity" if o == -inf else float.__repr__(o))
    elif isinstance(o, list):
        if not o:
            append("[]")
            return
        inner, head = nl + "  ", "["
        for x in o:
            append(head + inner)
            _encode(x, inner, out)
            head = ","
        append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            append("{}")
            return
        inner, head = nl + "  ", "{"
        for key, value in o.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            append(head + inner + _quote(key) + ": ")
            _encode(value, inner, out)
            head = ","
        append(nl + "}")
    elif isinstance(o, np.ndarray):  # the arrays documents and reports hold
        if np.iscomplexobj(o):
            o = np.stack([o.real, o.imag], -1)
        if o.dtype == np.float64 and o.ndim and o.size and np.isfinite(o).all():
            append("[" + nl + "  ")
            append(_array_body(o, nl + "  "))
            append(nl + "]")
        else:  # NaN, ±inf, empty, 0-d, int and bool arrays
            _encode(o.tolist(), nl, out)
    # the other objects reports hold, after what files hold so that a file
    # costs no extra check
    elif isinstance(o, BipartiteState):  # a dataclass too, written as its document
        _encode(state_to_obj(o), nl, out)
    elif is_dataclass(type(o)):
        _encode(_report_fields(o), nl, out)
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for every value written.

    The text of every file and ``--json`` report, in one walk.  It takes
    dicts with str keys, lists, str, int, bool, None and floats (subclasses
    such as ``np.float64`` through ``float.__repr__``; NaN and ±inf as
    ``NaN`` and ``Infinity``), and the objects documents and reports hold:
    numpy arrays, a ``BipartiteState`` as its ``umeb-state/1`` document and
    any other dataclass as the dict of :func:`_report_fields`.  An array is
    written as ``json.dumps`` writes its list form: a complex array as
    nested ``[re, im]`` pairs, a real one as its ``tolist()``.  It raises
    ``TypeError`` on anything else (numpy scalars other than floats, tuples,
    sets, bytes).  The stdlib writes indented text with its pure-Python
    encoder, one generator step per token; this writer formats a finite
    float array straight from its buffer at C level (:func:`_array_body`),
    with no nested lists.  On one Xeon core, a document of Weyl(31,33) takes
    0.6 s where ``json.dumps`` of its already built list form takes 2.1-2.2
    s, and one of Weyl(5,9) 0.45 ms against 2.3 ms.  Every piece goes into
    one list, joined once, so no item's text is copied again into its
    container's: the ``umeb pauli --d 32 --json`` report (62 MB) raises the
    peak RSS by 137 MB, where joining each container's text raised it by
    196 MB.
    """
    out: list[str] = []
    _encode(obj, "\n", out)
    return "".join(out)


def _report_fields(report) -> dict:
    """A report dataclass's fields by name, in declaration order, without
    those marked ``metadata={"json": False}``."""
    return {f.name: getattr(report, f.name)
            for f in fields(report) if f.metadata.get("json", True)}


def _pairs_to_amplitudes(pairs, expected_len: int, what: str) -> np.ndarray:
    if not isinstance(pairs, list) or len(pairs) != expected_len:
        raise FileFormatError(f"{what}: expected {expected_len} amplitude pairs")
    # whole-list checks at C level; only when they fail does the per-pair
    # loop run the same test pair by pair, to name the first bad amplitude
    if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}
            and set(map(type, chain.from_iterable(pairs))) <= {int, float}):
        for k, pair in enumerate(pairs):
            if (type(pair) is not list or len(pair) != 2
                    or not set(map(type, pair)) <= {int, float}):
                raise FileFormatError(f"{what}: amplitude {k} is not a [real, imag] pair")
    try:
        amp = np.array(list(chain.from_iterable(pairs)), dtype=float).view(complex)
    except OverflowError as exc:  # an integer beyond the range of a double
        raise FileFormatError(f"{what}: amplitude out of floating-point range") from exc
    if not np.all(np.isfinite(amp)):
        raise FileFormatError(f"{what}: non-finite amplitude")
    return amp


def _read_states(raw_states: list, n: int, name) -> np.ndarray:
    """The ``(k, n)`` amplitude rows of the ``k`` states ``raw_states``,
    norms admitted; ``name(i)`` names state ``i`` in the messages.

    Well-formed states are read as one array.  Otherwise they are read one
    by one, and the first fault met that way is raised: a malformed state,
    or a norm fault in a state before it.
    """
    k = len(raw_states)
    amplitudes = None
    if set(map(type, raw_states)) <= {list} and set(map(len, raw_states)) <= {n}:
        try:
            amplitudes = _pairs_to_amplitudes(list(chain.from_iterable(raw_states)), k * n, "")
        except FileFormatError:
            pass
    if amplitudes is None:
        rows = []
        for i, pairs in enumerate(raw_states):
            try:
                rows.append(_pairs_to_amplitudes(pairs, n, name(i)))
            except FileFormatError:
                _admit_norms(np.array(rows, dtype=complex).reshape(len(rows), n), name)
                raise
    amplitudes = amplitudes.reshape(k, n)
    _admit_norms(amplitudes, name)
    return amplitudes


def _admit_norms(rows: np.ndarray, name) -> None:
    """Apply the norm admission rule to each row of ``rows``, in place.

    One :func:`_norm_errors` call judges every row, by the norm error
    ``BipartiteState`` and ``BasisSet`` judge by, so a row kept as it is is
    one they admit.  Rows are refused or renormalised (with one warning
    each) in order; a renormalised row is divided by its own 1-D norm.
    ``name(i)`` names row ``i`` in the messages.
    """
    errs = _norm_errors(rows)
    for i in np.flatnonzero(errs > NORM_TOL):
        what, err, amp = name(i), errs[i], rows[i]
        if err > ADMIT_TOL:
            raise FileFormatError(
                f"{what}: norm {np.linalg.norm(amp):.9f} is off by more than {cite(ADMIT_TOL)}"
            )
        warnings.warn(f"{what}: norm off by {err:.3e}; renormalizing")
        rows[i] = amp / np.linalg.norm(amp)


def _open(path, fmt: str) -> tuple[dict, int, int]:
    """The document of the ``fmt`` file at ``path`` and its ``d`` and
    ``dprime``, checked in order: JSON, a top-level object, the format tag,
    then the dimensions and their product's limit."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    if doc.get("format") != fmt:
        raise FileFormatError(f"{path}: format tag is not {fmt!r}")
    d, dprime = doc.get("d"), doc.get("dprime")
    if not (isinstance(d, int) and isinstance(dprime, int) and 2 <= d <= dprime):
        raise FileFormatError(f"{path}: invalid dimensions d={d!r}, dprime={dprime!r}")
    if d * dprime > MAX_SPACE_DIM:
        raise FileFormatError(
            f"{path}: d*dprime = {d * dprime} exceeds the limit of {MAX_SPACE_DIM}"
        )
    return doc, d, dprime


def state_to_obj(psi: BipartiteState) -> dict:
    """The ``umeb-state/1`` document of a state.  ``"amplitudes"`` is the
    state's complex array, which :func:`_dumps` writes as ``[real, imag]``
    pairs."""
    return {
        "format": STATE_FORMAT,
        "d": psi.d,
        "dprime": psi.dprime,
        "amplitudes": psi.amplitudes,
    }


def _write(path, doc: dict) -> None:
    """Write the :func:`_dumps` text of ``doc``, then a newline, to ``path``.
    The text is made before the file is opened and truncated, so a document
    the writer refuses leaves the old file as it was."""
    text = _dumps(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def save_state(path, psi: BipartiteState) -> None:
    """Write one state as an ``umeb-state/1`` JSON file."""
    _write(path, state_to_obj(psi))


def load_state(path) -> BipartiteState:
    """Read an ``umeb-state/1`` file, applying the norm admission rule."""
    doc, d, dprime = _open(path, STATE_FORMAT)
    amp = _read_states([doc.get("amplitudes")], d * dprime, lambda i: f"{path}")[0]
    return BipartiteState(d, dprime, amp)


def basis_to_obj(basis: BasisSet) -> dict:
    """The ``umeb-basis/1`` document of a basis.  ``"states"`` is the
    basis's ``(k, d*dprime)`` complex array, which :func:`_dumps` writes as
    one list of ``[real, imag]`` pairs per member."""
    obj = {
        "format": BASIS_FORMAT,
        "d": basis.d,
        "dprime": basis.dprime,
        "states": basis.amplitudes,
        "me_flags": list(basis.me_flags),
    }
    if basis.labels is not None:
        obj["labels"] = list(basis.labels)
    return obj


def save_basis(path, basis: BasisSet) -> None:
    """Write a basis as an ``umeb-basis/1`` JSON file."""
    _write(path, basis_to_obj(basis))


def load_basis(path, check_orthonormal: bool = True) -> BasisSet:
    """Read an ``umeb-basis/1`` file.

    Per-state norms follow the admission rule; missing entanglement flags are
    recomputed.  With ``check_orthonormal`` (the default) a Gram deviation
    beyond 1e-6 is a load error — the verification command turns this off,
    since measuring that deviation is its whole job.
    """
    doc, d, dprime = _open(path, BASIS_FORMAT)
    raw_states = doc.get("states")
    if not isinstance(raw_states, list):
        raise FileFormatError(f"{path}: missing states array")
    amplitudes = _read_states(raw_states, d * dprime, lambda i: f"{path}: state {i}")
    k = len(amplitudes)

    labels = doc.get("labels")
    if labels is not None:
        if not (isinstance(labels, list) and len(labels) == k
                and all(isinstance(x, str) for x in labels)):
            raise FileFormatError(f"{path}: labels must be {k} strings")
    flags = doc.get("me_flags")
    if flags is not None and not (isinstance(flags, list) and len(flags) == k
                                  and all(isinstance(x, bool) for x in flags)):
        raise FileFormatError(f"{path}: me_flags must be {k} booleans")

    if flags is None:
        flags = _me_deviations(amplitudes, d, dprime) <= ME_TOL
    if check_orthonormal:
        dev = _gram_deviation(amplitudes)
        if dev > ADMIT_TOL:
            raise FileFormatError(
                f"{path}: states are not orthonormal (Gram deviation {dev:.3e})"
            )
    return BasisSet(d, dprime, amplitudes, flags, labels)
