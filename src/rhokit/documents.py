"""Versioned JSON interchange documents for every value the CLI moves around.

This docstring is the reference for the encoding and for what the readers
and writers check; each writer and reader names its payload's keys.

Encoding. Every document is an envelope ``{"kind": ..., "version": 1,
"payload": ...}`` with kind one of ``KINDS``. Complex numbers serialize as
two-element ``[re, im]`` arrays, kets as arrays of those, and matrices as
``{"rows", "cols", "entries"}`` objects whose entries are arrays of row
arrays. Dimensions are explicit in the payload and checked against the data
on parse; a umap's ``basis`` is read at its generator's declared rows.
Documents are dumped as one compact line (separators ``,`` and ``:``) with
sorted keys and a trailing newline; any JSON layout loads, the older indented
one included. Floats are emitted with Python's shortest round-trip
representation, so ``parse(dump(x))`` reproduces ``x`` bit-for-bit, and equal
inputs produce byte-identical documents at one BLAS thread count. A different
count can change the last bits of a value that goes through BLAS-threaded
products: a dim-96 ``umap`` document differed between
``OPENBLAS_NUM_THREADS=1`` and ``2``, while the conditioned ensemble it maps
onto did not.

Readers. ``load_document`` and every ``to_*`` reader open a document through
one envelope gate, ``_admit_envelope``: a JSON object of a known kind,
version 1 and an object payload. A reader checks only the encoding (the
envelope, the JSON types, the ``[re, im]`` pairs and each declared size
against the array it describes) and raises DocumentError, with the path of
the first malformed entry; non-finite numbers, booleans, strings and
integers beyond the float range are malformed. Every other rule of a value
is its constructor's, whose typed error the reader passes on unchanged. A
reader handed a malformed dict raises the DocumentError ``load_document``
raises for the same text, one handed a document of another kind raises
DocumentError too, and an entry nested past the interpreter's recursion
limit is named as nested rather than printed. ``load_document`` raises
DocumentError for an argument that is not text, and for text that does not
parse or nests past the recursion limit.

Writers. A writer's array arguments pass the library's array gate
(DimensionMismatch for a wrong shape, InvalidArgument for an entry that is
not a finite number), and a value-object argument of another class raises
InvalidArgument. ``dump_document`` writes only what ``load_document`` opens:
it raises DocumentError for a document that fails the envelope gate and for
a value JSON cannot hold. Every reader and writer passes ``_public``, so it
fails only with a RhokitError and follows the memory rule of
``rhokit.linalg``.

Round trip. Every value a constructor admits round-trips: its writer writes a
document that its reader reads back to an equal value, bit for bit. That
holds for all seven kinds (kets, matrices, bases and ``Ancilla``, written as
a basis, ``RhoEnsemble``, ``JointState``, ``UMap`` and ``SteeringReport``),
degenerate shapes included, because each constructor, and ``basis_document``,
which refuses a list of no kets, refuses every value its reader would refuse.
"""

from __future__ import annotations

import contextlib
import json
import math

import numpy as np

from .ensembles import RhoEnsemble
from .errors import DocumentError
from .linalg import (
    Ancilla,
    JointState,
    _checked,
    _convert,
    _public,
    as_ket,
    as_ket_list,
    as_operator,
)
from .purification import UMap
from .steering import SteeringReport

VERSION = 1
KINDS = ("ket", "matrix", "ensemble", "joint", "umap", "basis", "report")


# ---------------------------------------------------------------------------
# scalar / array payload pieces


def _complex_payload(arr) -> list:
    """Nested lists of the array's entries, each as a ``[re, im]`` pair."""
    a = np.asarray(arr, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def _is_number(x) -> bool:
    """A number that converts to a finite float: not a bool, ``1e400`` or ``10**400``."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        return False


def _shown(value) -> str:
    """``repr(value)``, or the kind of a value nested past the recursion limit:
    only a dict built in Python, never parsed text, holds one."""
    try:
        return repr(value)
    except RecursionError:
        return f"a {type(value).__name__} nested past the recursion limit"


def _complex_array(value, shape: tuple[int, ...], where: str) -> np.ndarray:
    """The complex array of ``shape`` encoded as ``[re, im]`` pairs, in one array pass.

    Leaf types are checked, not the dtype, which a bool beside a float passes.
    Viewing the floats as complex keeps every bit. ``where`` holds ``{}`` for
    the row index of a matrix. A rejected array is walked to raise the error
    of its first malformed entry.
    """
    a = np.asarray(value, dtype=object)
    leaf_types = set(map(type, a.ravel().tolist()))
    if a.shape == (*shape, 2) and all(
        issubclass(t, (int, float)) and t is not bool for t in leaf_types
    ):
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            f = a.astype(float)
            if np.isfinite(f).all():
                return f.view(complex).reshape(shape)
    for i, row in enumerate([value] if len(shape) == 1 else value):
        path = where.format(i)
        if not isinstance(row, list) or len(row) != shape[-1]:
            raise DocumentError(f"{path}: expected {shape[-1]} entries")
        for z in row:
            if not isinstance(z, list) or len(z) != 2 or not all(map(_is_number, z)):
                raise DocumentError(f"{path}: expected a [re, im] pair, got {_shown(z)}")
    # Callers check the row count, so the walk above raises for every rejection.
    raise DocumentError(f"{where}: expected [re, im] pairs of shape {shape}")


def _matrix_payload(m) -> dict:
    arr = as_operator(m)
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "entries": _complex_payload(arr),
    }


def _parse_matrix(value, where: str) -> np.ndarray:
    if not isinstance(value, dict):
        raise DocumentError(f"{where}: expected a matrix object")
    rows = _parse_dim(value.get("rows"), f"{where}.rows")
    cols = _parse_dim(value.get("cols"), f"{where}.cols")
    entries = value.get("entries")
    if not isinstance(entries, list) or len(entries) != rows:
        raise DocumentError(f"{where}: expected {rows} rows")
    return _complex_array(entries, (rows, cols), f"{where}.entries[{{}}]")


def _parse_dim(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise DocumentError(f"{where}: expected a positive integer, got {_shown(value)}")
    return value


# ---------------------------------------------------------------------------
# envelope


def _envelope(kind: str, payload: dict) -> dict:
    return {"kind": kind, "version": VERSION, "payload": payload}


@_public
def dump_document(doc: dict) -> str:
    """Serialize an envelope ``load_document`` opens: one compact line, sorted keys, newline."""
    # json raises ValueError for a non-finite float or a cycle, TypeError for
    # a value it has no type for (a numpy scalar) or keys it cannot sort, and
    # RecursionError for nesting past the interpreter's limit.
    _admit_envelope(doc)
    try:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError, RecursionError) as exc:
        raise DocumentError(f"cannot serialize document: {exc}") from exc
    return text + "\n"


@_public
def load_document(text: str) -> dict:
    """Parse an envelope and pass it through the envelope gate; payload stays raw."""
    # json raises TypeError for an argument that is not text, ValueError for
    # text that does not parse, and RecursionError as dump_document's does.
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except (TypeError, ValueError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    return _admit_envelope(doc)


def _admit_envelope(doc) -> dict:
    """The one envelope gate: ``doc`` once it is a JSON object of a known kind,
    this ``VERSION`` and an object payload; DocumentError otherwise."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"unknown document kind {_shown(kind)}")
    if doc.get("version") != VERSION:
        raise DocumentError(f"unsupported document version {_shown(doc.get('version'))}")
    if not isinstance(doc.get("payload"), dict):
        raise DocumentError("document payload must be a JSON object")
    return doc


def _reject_constant(name: str):
    raise DocumentError(f"non-finite number {name!r} is not allowed")


def _payload(doc: dict, kind: str) -> dict:
    if _admit_envelope(doc)["kind"] != kind:
        raise DocumentError(f"expected a {kind!r} document, got {doc['kind']!r}")
    return doc["payload"]


# ---------------------------------------------------------------------------
# builders


@_public
def ket_document(vec) -> dict:
    """A ``ket`` document: ``dim``, ``entries`` (``dim`` pairs)."""
    arr = as_ket(vec)
    return _envelope("ket", {"dim": int(arr.shape[0]), "entries": _complex_payload(arr)})


@_public
def matrix_document(m) -> dict:
    """A ``matrix`` document: ``rows``, ``cols``, ``entries`` (``rows`` rows of
    ``cols`` pairs)."""
    return _envelope("matrix", _matrix_payload(m))


@_public
def ensemble_document(e: RhoEnsemble) -> dict:
    """An ``ensemble`` document: ``dim``, ``elements[{weight, ket}]`` in element order."""
    return _envelope(
        "ensemble",
        {
            "dim": e.dim,
            "elements": [
                {"weight": float(w), "ket": ket}
                for ket, w in zip(_complex_payload(e.kets), e.weights)
            ],
        },
    )


@_public
def joint_document(state: JointState) -> dict:
    """A ``joint`` document: ``dim_s``, ``dim_m``, ``vec`` (``dim_s * dim_m`` pairs,
    system-major)."""
    return _envelope(
        "joint",
        {
            "dim_s": state.dim_s,
            "dim_m": state.dim_m,
            "vec": _complex_payload(state.vec),
        },
    )


@_public
def basis_document(kets) -> dict:
    """A ``basis`` document: ``dim``, ``kets`` (rows of ``dim`` pairs, at least one)."""
    arr = _checked(_convert(kets), 2, "ket list")  # at least one ket, as to_basis reads
    return _envelope("basis", {"dim": int(arr.shape[1]), "kets": _complex_payload(arr)})


@_public
def umap_document(u: UMap) -> dict:
    """A ``umap`` document: ``cols``, ``generator`` (a matrix object), ``basis``
    (rows of pairs); never the coefficients, which ``UMap`` derives."""
    payload = {
        "cols": u.cols,
        "generator": _matrix_payload(u.generator),
        "basis": _complex_payload(u.basis),
    }
    return _envelope("umap", payload)


@_public
def report_document(report: SteeringReport) -> dict:
    """A ``report`` document: ``counts``, ``expected_weights``, ``post_density``
    (a matrix object); never ``shots``, which ``SteeringReport`` derives."""
    return _envelope(
        "report",
        {
            "counts": [int(c) for c in report.counts],
            "expected_weights": [float(w) for w in report.expected_weights],
            "post_density": _matrix_payload(report.post_density),
        },
    )


# ---------------------------------------------------------------------------
# extractors


@_public
def to_ket(doc: dict) -> np.ndarray:
    """The ket a ``ket`` document encodes: ``dim``, ``entries``."""
    payload = _payload(doc, "ket")
    dim = _parse_dim(payload.get("dim"), "ket.dim")
    return _complex_array(payload.get("entries"), (dim,), "ket.entries")


@_public
def to_matrix(doc: dict) -> np.ndarray:
    """The matrix a ``matrix`` document encodes: ``rows``, ``cols``, ``entries``."""
    return _parse_matrix(_payload(doc, "matrix"), "matrix")


@_public
def to_ensemble(doc: dict) -> RhoEnsemble:
    """The ensemble an ``ensemble`` document encodes: ``dim``, ``elements[{weight, ket}]``.
    No elements is well encoded, and ``RhoEnsemble`` refuses it (InvalidEnsemble)."""
    payload = _payload(doc, "ensemble")
    dim = _parse_dim(payload.get("dim"), "ensemble.dim")
    elements = payload.get("elements")
    if not isinstance(elements, list):
        raise DocumentError("ensemble.elements: expected an array")
    # A bad ket is reported before any bad object or weight that follows it.
    ok = [isinstance(e, dict) and _is_number(e.get("weight")) for e in elements]
    n = ok.index(False) if False in ok else len(elements)
    if n:
        kets = [e.get("ket") for e in elements[:n]]
        kets = _complex_array(kets, (n, dim), "ensemble.elements[{}].ket")
    if n < len(elements):
        if not isinstance(elements[n], dict):
            raise DocumentError(f"ensemble.elements[{n}]: expected an object")
        raise DocumentError(f"ensemble.elements[{n}].weight: expected a number")
    weights = np.array([e["weight"] for e in elements], dtype=float)
    # No elements read as a (0, dim) ket list, which RhoEnsemble refuses.
    return RhoEnsemble(kets=kets if n else as_ket_list([], dim), weights=weights)


@_public
def to_joint(doc: dict) -> JointState:
    """The joint state a ``joint`` document encodes: ``dim_s``, ``dim_m``, ``vec``."""
    payload = _payload(doc, "joint")
    dim_s = _parse_dim(payload.get("dim_s"), "joint.dim_s")
    dim_m = _parse_dim(payload.get("dim_m"), "joint.dim_m")
    vec = _complex_array(payload.get("vec"), (dim_s * dim_m,), "joint.vec")
    return JointState(dim_s=dim_s, dim_m=dim_m, vec=vec)


@_public
def to_basis(doc: dict) -> np.ndarray:
    """The ket list a ``basis`` document encodes: ``dim``, ``kets`` (non-empty)."""
    payload = _payload(doc, "basis")
    dim = _parse_dim(payload.get("dim"), "basis.dim")
    kets = payload.get("kets")
    if not isinstance(kets, list) or not kets:
        raise DocumentError("basis.kets: expected a non-empty array")
    return _complex_array(kets, (len(kets), dim), "basis.kets[{}]")


@_public
def to_umap(doc: dict) -> UMap:
    """The map a ``umap`` document encodes: ``cols``, ``generator``, ``basis``.

    Only the encoding is checked here (DocumentError): ``generator`` as a
    matrix object, ``cols`` as a count of its columns, and ``basis`` as
    ``rows`` kets of ``rows`` entries, ``rows`` being the generator's declared
    rows. Other keys, such as the ``rows`` and ``coeffs`` of documents
    written before a map was its generator, are ignored. A generator that is
    not square is ``UMap``'s to refuse.
    """
    payload = _payload(doc, "umap")
    cols = _parse_dim(payload.get("cols"), "umap.cols")
    generator = _parse_matrix(payload.get("generator"), "umap.generator")
    if cols > generator.shape[1]:
        raise DocumentError(
            f"umap.cols is {cols}, more than the generator's {generator.shape[1]} columns"
        )
    rows, basis = generator.shape[0], payload.get("basis")
    if not isinstance(basis, list) or len(basis) != rows:
        raise DocumentError(f"umap.basis: expected {rows} kets")
    basis = _complex_array(basis, (rows, rows), "umap.basis[{}]")
    return UMap(generator=generator, basis=basis, cols=cols)


@_public
def to_report(doc: dict) -> SteeringReport:
    """The report a ``report`` document encodes: ``counts``, ``expected_weights``,
    ``post_density``.

    Only the encoding is checked here (DocumentError): ``counts`` is an array,
    ``expected_weights`` an array of numbers and ``post_density`` a matrix
    object; other keys, such as the ``shots`` of older documents, are ignored.
    Every other rule is ``SteeringReport``'s, whose errors pass as raised.
    """
    payload = _payload(doc, "report")
    counts, weights = payload.get("counts"), payload.get("expected_weights")
    if not isinstance(counts, list):
        raise DocumentError("report.counts: expected an array")
    if not isinstance(weights, list) or not all(map(_is_number, weights)):
        raise DocumentError("report.expected_weights: expected an array of numbers")
    post_density = _parse_matrix(payload.get("post_density"), "report.post_density")
    return SteeringReport(counts, weights, post_density)


@_public
def ancilla_basis_document(ancilla: Ancilla) -> dict:
    """Serialize ancilla kets as a basis document (possibly a partial set)."""
    return basis_document(ancilla.kets)
