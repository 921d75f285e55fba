"""Versioned JSON interchange documents for every value the CLI moves around.

Every document is an envelope ``{"kind": ..., "version": 1, "payload": ...}``.
Complex numbers serialize as two-element ``[re, im]`` arrays, kets as arrays
of those, matrices as arrays of row arrays. Dimensions are always explicit in
the payload and checked against the data on parse; they are never inferred.
Documents are dumped as one compact line with sorted keys; any JSON layout
loads, the older indented one included. Floats are emitted with Python's
shortest round-trip representation, so ``parse(dump(x))`` reproduces ``x``
bit-for-bit and equal inputs produce byte-identical documents.
"""

from __future__ import annotations

import contextlib
import json
import math

import numpy as np

from .ensembles import RhoEnsemble
from .errors import DocumentError
from .purification import Ancilla, JointState, UMap
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
                raise DocumentError(f"{path}: expected a [re, im] pair, got {z!r}")
    # Callers check the row count, so the walk above raises for every rejection.
    raise DocumentError(f"{where}: expected [re, im] pairs of shape {shape}")


def _matrix_payload(m) -> dict:
    arr = np.asarray(m, dtype=complex)
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
        raise DocumentError(f"{where}: expected a positive integer, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# envelope


def _envelope(kind: str, payload: dict) -> dict:
    return {"kind": kind, "version": VERSION, "payload": payload}


def dump_document(doc: dict) -> str:
    """Serialize an envelope deterministically: one compact line, sorted keys, newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def load_document(text: str) -> dict:
    """Parse an envelope, checking kind and version; payload stays raw."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"unknown document kind {kind!r}")
    if doc.get("version") != VERSION:
        raise DocumentError(f"unsupported document version {doc.get('version')!r}")
    if not isinstance(doc.get("payload"), dict):
        raise DocumentError("document payload must be a JSON object")
    return doc


def _reject_constant(name: str):
    raise DocumentError(f"non-finite number {name!r} is not allowed")


def _payload(doc: dict, kind: str) -> dict:
    if doc.get("kind") != kind:
        raise DocumentError(f"expected a {kind!r} document, got {doc.get('kind')!r}")
    return doc["payload"]


# ---------------------------------------------------------------------------
# builders


def ket_document(vec) -> dict:
    arr = np.asarray(vec, dtype=complex)
    return _envelope("ket", {"dim": int(arr.shape[0]), "entries": _complex_payload(arr)})


def matrix_document(m) -> dict:
    return _envelope("matrix", _matrix_payload(m))


def ensemble_document(e: RhoEnsemble) -> dict:
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


def joint_document(state: JointState) -> dict:
    return _envelope(
        "joint",
        {
            "dim_s": state.dim_s,
            "dim_m": state.dim_m,
            "vec": _complex_payload(state.vec),
        },
    )


def basis_document(kets) -> dict:
    arr = np.asarray(kets, dtype=complex)
    return _envelope("basis", {"dim": int(arr.shape[1]), "kets": _complex_payload(arr)})


def umap_document(u: UMap) -> dict:
    payload = {
        "rows": u.rows,
        "cols": u.cols,
        "coeffs": _matrix_payload(u.coeffs),
        "generator": None if u.generator is None else _matrix_payload(u.generator),
        "basis": None if u.basis is None else _complex_payload(u.basis),
    }
    return _envelope("umap", payload)


def report_document(report: SteeringReport) -> dict:
    return _envelope(
        "report",
        {
            "shots": report.shots,
            "counts": [int(c) for c in report.counts],
            "expected_weights": [float(w) for w in report.expected_weights],
            "post_density": _matrix_payload(report.post_density),
        },
    )


# ---------------------------------------------------------------------------
# extractors


def to_ket(doc: dict) -> np.ndarray:
    payload = _payload(doc, "ket")
    dim = _parse_dim(payload.get("dim"), "ket.dim")
    return _complex_array(payload.get("entries"), (dim,), "ket.entries")


def to_matrix(doc: dict) -> np.ndarray:
    return _parse_matrix(_payload(doc, "matrix"), "matrix")


def to_ensemble(doc: dict) -> RhoEnsemble:
    payload = _payload(doc, "ensemble")
    dim = _parse_dim(payload.get("dim"), "ensemble.dim")
    elements = payload.get("elements")
    if not isinstance(elements, list) or not elements:
        raise DocumentError("ensemble.elements: expected a non-empty array")
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
    return RhoEnsemble(kets=kets, weights=weights)


def to_joint(doc: dict) -> JointState:
    payload = _payload(doc, "joint")
    dim_s = _parse_dim(payload.get("dim_s"), "joint.dim_s")
    dim_m = _parse_dim(payload.get("dim_m"), "joint.dim_m")
    vec = _complex_array(payload.get("vec"), (dim_s * dim_m,), "joint.vec")
    return JointState(dim_s=dim_s, dim_m=dim_m, vec=vec)


def to_basis(doc: dict) -> np.ndarray:
    payload = _payload(doc, "basis")
    dim = _parse_dim(payload.get("dim"), "basis.dim")
    kets = payload.get("kets")
    if not isinstance(kets, list) or not kets:
        raise DocumentError("basis.kets: expected a non-empty array")
    return _complex_array(kets, (len(kets), dim), "basis.kets[{}]")


def to_umap(doc: dict) -> UMap:
    payload = _payload(doc, "umap")
    rows = _parse_dim(payload.get("rows"), "umap.rows")
    cols = _parse_dim(payload.get("cols"), "umap.cols")
    coeffs = _parse_matrix(payload.get("coeffs"), "umap.coeffs")
    if coeffs.shape != (rows, cols):
        raise DocumentError(
            f"umap.coeffs has shape {coeffs.shape}, envelope says ({rows}, {cols})"
        )
    generator = payload.get("generator")
    if generator is not None:
        generator = _parse_matrix(generator, "umap.generator")
    basis = payload.get("basis")
    if basis is not None:
        if not isinstance(basis, list) or len(basis) != rows:
            raise DocumentError(f"umap.basis: expected {rows} kets")
        basis = _complex_array(basis, (rows, rows), "umap.basis[{}]")
    return UMap(coeffs=coeffs, generator=generator, basis=basis)


def to_report(doc: dict) -> SteeringReport:
    payload = _payload(doc, "report")
    shots = _parse_dim(payload.get("shots"), "report.shots")
    counts = payload.get("counts")
    weights = payload.get("expected_weights")
    if not isinstance(counts, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in counts
    ):
        raise DocumentError("report.counts: expected an array of non-negative integers")
    if sum(counts) != shots:
        raise DocumentError(f"report.counts: sum {sum(counts)} differs from shots {shots}")
    if (
        not isinstance(weights, list)
        or len(weights) != len(counts)
        or not all(_is_number(w) for w in weights)
    ):
        raise DocumentError("report.expected_weights: expected numbers matching counts")
    if any(w < 0 for w in weights):
        raise DocumentError("report.expected_weights: expected non-negative weights")
    return SteeringReport(
        shots=shots,
        counts=[int(c) for c in counts],
        expected_weights=np.array([float(w) for w in weights]),
        post_density=_parse_matrix(payload.get("post_density"), "report.post_density"),
    )


def ancilla_basis_document(ancilla: Ancilla) -> dict:
    """Serialize ancilla kets as a basis document (possibly a partial set)."""
    return basis_document(ancilla.kets)
