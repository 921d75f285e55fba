"""JSON document round-trips and schema rejection."""

import copy
import itertools
import json
import math
import re

import numpy as np
import pytest

from rhokit import (
    Ancilla,
    DimensionMismatch,
    DocumentError,
    InvalidArgument,
    InvalidEnsemble,
    JointState,
    RhoEnsemble,
    RhokitError,
    SteeringReport,
    UMap,
    steer,
)
from rhokit import documents as docs
from helpers import (
    bell_joint,
    bits,
    forged_isometry,
    minus_ket,
    pick,
    plus_ket,
    random_ket,
    random_unitary,
)


def test_ket_roundtrip_exact():
    rng = np.random.default_rng(1)
    vec = random_ket(rng, 5)
    doc = docs.load_document(docs.dump_document(docs.ket_document(vec)))
    np.testing.assert_array_equal(docs.to_ket(doc), vec)


def test_matrix_roundtrip_exact():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    doc = docs.load_document(docs.dump_document(docs.matrix_document(m)))
    np.testing.assert_array_equal(docs.to_matrix(doc), m)


def test_ensemble_roundtrip_exact():
    e = RhoEnsemble(kets=[plus_ket(), minus_ket()], weights=[0.25, 0.75])
    doc = docs.load_document(docs.dump_document(docs.ensemble_document(e)))
    out = docs.to_ensemble(doc)
    np.testing.assert_array_equal(out.kets, e.kets)
    np.testing.assert_array_equal(out.weights, e.weights)


def test_joint_roundtrip_exact():
    joint = bell_joint()
    doc = docs.load_document(docs.dump_document(docs.joint_document(joint)))
    out = docs.to_joint(doc)
    assert (out.dim_s, out.dim_m) == (2, 2)
    np.testing.assert_array_equal(out.vec, joint.vec)


def test_basis_roundtrip_exact():
    rng = np.random.default_rng(3)
    basis = random_unitary(rng, 3)
    doc = docs.load_document(docs.dump_document(docs.basis_document(basis)))
    np.testing.assert_array_equal(docs.to_basis(doc), basis)


def test_umap_roundtrip_exact():
    rng = np.random.default_rng(4)
    u = random_unitary(rng, 3)
    umap = UMap(generator=u, basis=np.eye(3, dtype=complex), cols=2)
    doc = docs.load_document(docs.dump_document(docs.umap_document(umap)))
    out = docs.to_umap(doc)
    np.testing.assert_array_equal(out.generator, umap.generator)
    np.testing.assert_array_equal(out.basis, umap.basis)
    assert out.cols == umap.cols
    np.testing.assert_array_equal(out.coeffs, umap.coeffs)


def test_umap_document_of_coefficients_alone_is_malformed():
    # An isometry with no ancilla unitary behind it, as documents once held it.
    isometry = forged_isometry()
    matrix = {"rows": 3, "cols": 2, "entries": _pairs(isometry)}
    doc = envelope("umap", {"rows": 3, "cols": 2, "coeffs": matrix})
    with pytest.raises(DocumentError, match="^umap.generator: expected a matrix object$"):
        docs.to_umap(docs.load_document(json.dumps(doc)))


# Every argument shape up to two axes of at most three entries, the empty and
# zero-length ones included, and every dimension up to three.
SHAPES = [(), *((n,) for n in range(4)), *itertools.product(range(4), repeat=2)]
DIMS = range(4)


def entries(shape):
    """Distinct finite complex entries of ``shape``."""
    count = math.prod(shape)
    return ((np.arange(count) + 1j * np.arange(count, 0, -1)) / 3).reshape(shape)


def admitted(build, *args):
    """``build(*args)``, or None where it refuses the shapes of ``args``: every
    other property the arguments need (positive weights, unit norm,
    orthonormal kets) holds, so every refusal is one of these three errors."""
    try:
        return build(*args)
    except (DimensionMismatch, InvalidArgument, InvalidEnsemble):
        return None


def written(kind):
    """``(value, document)`` for every value of ``kind`` whose constructor
    admits arguments of ``SHAPES`` and ``DIMS``; ``ancilla`` is written as a basis."""
    if kind in ("ket", "matrix", "basis"):
        write = getattr(docs, f"{kind}_document")
        arrays = [entries(shape) for shape in SHAPES]
        return [(a, doc) for a in arrays if (doc := admitted(write, a)) is not None]
    if kind == "ancilla":
        kets = [np.eye(*shape) if len(shape) == 2 else entries(shape) for shape in SHAPES]
        values = [admitted(Ancilla, dim_m, k) for dim_m in DIMS for k in kets]
        return [(v.kets, docs.ancilla_basis_document(v)) for v in values if v is not None]
    if kind == "ensemble":
        weights = [np.full(shape, 0.5) for shape in SHAPES]
        values = [admitted(RhoEnsemble, entries(k), w) for k in SHAPES for w in weights]
    elif kind == "joint":
        units = [np.zeros(shape, dtype=complex) for shape in SHAPES]
        for vec in units:
            vec.flat[:1] = 1.0
        values = [admitted(JointState, s, m, v) for s in DIMS for m in DIMS for v in units]
    elif kind == "report":
        counts = [np.ones(shape, dtype=int) for shape in SHAPES]
        weights = [np.full(shape, 0.5) for shape in SHAPES]
        values = [
            admitted(SteeringReport, c, w, entries(p))
            for c in counts for w in weights for p in SHAPES
        ]
    else:
        matrices = [entries(shape) for shape in SHAPES]
        values = [admitted(UMap, g, b, cols) for g in matrices for b in matrices for cols in DIMS]
    write = getattr(docs, f"{kind}_document")
    return [(v, write(v)) for v in values if v is not None]


@pytest.mark.parametrize(
    "kind", ["ket", "matrix", "basis", "ancilla", "ensemble", "joint", "umap", "report"]
)
def test_every_admitted_value_round_trips_through_its_document(kind):
    read = docs.to_basis if kind == "ancilla" else getattr(docs, f"to_{kind}")
    cases = written(kind)
    failures = []
    for value, doc in cases:
        try:
            back = read(docs.load_document(docs.dump_document(doc)))
        except RhokitError as exc:
            failures.append(f"{value!r:.100}: {type(exc).__name__}: {exc}")
            continue
        if bits(back) != bits(value):
            failures.append(f"{value!r:.100}: read back as {back!r:.100}")
    assert cases and not failures, "\n".join(failures)


def test_report_roundtrip_exact():
    report = steer(bell_joint(), np.eye(2, dtype=complex), shots=100, seed=9)
    doc = docs.load_document(docs.dump_document(docs.report_document(report)))
    out = docs.to_report(doc)
    assert out.shots == report.shots
    assert out.counts == report.counts
    np.testing.assert_array_equal(out.expected_weights, report.expected_weights)
    np.testing.assert_array_equal(out.post_density, report.post_density)


# The report of test_report_roundtrip_exact as written while a report still
# stored its shots beside its counts.
OLDER_REPORT = (
    '{"kind":"report","payload":{"counts":[38,62],"expected_weights":[0.5,0.5],'
    '"post_density":{"cols":2,"entries":[[[0.5,0.0],[0.0,0.0]],[[0.0,0.0],[0.5,0.0]]],'
    '"rows":2},"shots":100},"version":1}\n'
)


def test_a_report_document_holds_its_counts_and_no_shots():
    report = steer(bell_joint(), np.eye(2, dtype=complex), shots=100, seed=9)
    doc = docs.report_document(report)
    assert "shots" not in doc["payload"]
    older = docs.to_report(docs.load_document(OLDER_REPORT))
    assert bits(older) == bits(report) and older.shots == 100
    assert docs.dump_document(docs.report_document(older)) == docs.dump_document(doc)


@pytest.mark.parametrize(
    "field, value, error, message",
    [
        pytest.param(
            "counts", [], InvalidArgument, "counts sum to 0, expected at least 1",
            id="counts-value0-report.counts",
        ),
        pytest.param(
            "expected_weights", [-3.0, 7.0], InvalidArgument,
            "expected weights must be non-negative",
            id="expected_weights-value1-report.expected_weights",
        ),
        pytest.param(
            "counts", [101, -1], InvalidArgument, "counts[1] must be an integer >= 0, got -1",
            id="counts-value2-report.counts",
        ),
        pytest.param(
            "expected_weights", [1.0], DimensionMismatch, "2 counts but 1 weights",
            id="expected_weights-value3-report.expected_weights",
        ),
        pytest.param(
            "counts", [0, 0], InvalidArgument, "counts sum to 0, expected at least 1",
            id="counts-zeros-report.counts",
        ),
        pytest.param(
            "post_density", "dense", DocumentError,
            "report.post_density: expected a matrix object",
            id="post_density-dense-report.post_density",
        ),
        pytest.param(
            "post_density", {"rows": 10**12, "cols": 2, "entries": []}, DocumentError,
            "report.post_density: expected 1000000000000 rows",
            id="post_density-value6-report.post_density",
        ),
        pytest.param(
            "post_density",
            {"rows": 1, "cols": 3, "entries": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]},
            DimensionMismatch,
            "post_density has shape (1, 3), not square",
            id="post_density-value7-report.post_density",
        ),
        pytest.param(
            "counts", "many", DocumentError, "report.counts: expected an array",
            id="counts-many-report.counts",
        ),
        pytest.param(
            "expected_weights", [0.5, "half"], DocumentError,
            "report.expected_weights: expected an array of numbers",
            id="expected_weights-value9-report.expected_weights",
        ),
    ],
)
def test_report_rejects_inconsistent_statistics(field, value, error, message):
    # The reader refuses a malformed encoding with the path of its field;
    # every other rule is SteeringReport's, whose typed error passes unchanged.
    report = steer(bell_joint(), np.eye(2, dtype=complex), shots=100, seed=9)
    doc = docs.report_document(report)
    doc["payload"][field] = value
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        docs.to_report(doc)
    assert type(info.value) is error


def _pairs(arr):
    """Per-entry oracle for the ``[re, im]`` payload of an array of any rank."""
    arr = np.asarray(arr, dtype=complex)
    if arr.ndim == 0:
        z = complex(arr)
        return [float(z.real), float(z.imag)]
    return [_pairs(a) for a in arr]


def test_dumps_match_a_per_entry_oracle_on_extreme_values():
    edge = np.empty(9, dtype=complex)
    edge.real = [-0.0, 5e-324, 1e308, -1e308, 0.5, -5e-324, 0.0, 1.0, -2.5]
    edge.imag = [1e308, -0.0, 5e-324, 0.0, -5e-324, -1e308, -0.0, 3.0, 1e-300]
    square = edge.reshape(3, 3)
    weights = [0.25, 0.5, 0.25]
    joint_vec = np.array([1.0, -0.0, 5e-324, -0.0], dtype=complex)
    umap = UMap(generator=square, basis=square.T, cols=2)

    def envelope(kind, payload):
        return {"kind": kind, "version": 1, "payload": payload}

    def matrix(m):
        return {"rows": m.shape[0], "cols": m.shape[1], "entries": _pairs(m)}

    cases = [
        (docs.ket_document(edge), envelope("ket", {"dim": 9, "entries": _pairs(edge)})),
        (docs.matrix_document(square.T), envelope("matrix", matrix(square.T))),
        (
            docs.basis_document(np.asfortranarray(square)[::2]),
            envelope("basis", {"dim": 3, "kets": _pairs(square[::2])}),
        ),
        (
            docs.ensemble_document(RhoEnsemble(kets=square, weights=weights)),
            envelope(
                "ensemble",
                {
                    "dim": 3,
                    "elements": [
                        {"weight": w, "ket": _pairs(k)} for k, w in zip(square, weights)
                    ],
                },
            ),
        ),
        (
            docs.joint_document(JointState(dim_s=2, dim_m=2, vec=joint_vec)),
            envelope("joint", {"dim_s": 2, "dim_m": 2, "vec": _pairs(joint_vec)}),
        ),
        (
            docs.umap_document(umap),
            envelope(
                "umap",
                {"cols": 2, "generator": matrix(square), "basis": _pairs(square.T)},
            ),
        ),
    ]
    for built, expected in cases:
        assert docs.dump_document(built) == docs.dump_document(expected)


def test_dump_is_deterministic():
    joint = bell_joint()
    assert docs.dump_document(docs.joint_document(joint)) == docs.dump_document(
        docs.joint_document(joint)
    )


KET_ENVELOPE = {"kind": "ket", "version": 1}
WRITER_CATALOGUE = [
    (docs.ket_document, [[1, 2]], DimensionMismatch),
    (docs.ket_document, "ab", InvalidArgument),
    (docs.matrix_document, [1, 2], DimensionMismatch),
    (docs.basis_document, [1, 2], DimensionMismatch),
    (docs.basis_document, np.zeros((0, 2)), DimensionMismatch),
    (docs.basis_document, np.zeros((2, 0)), DimensionMismatch),
    (docs.dump_document, {"x": math.nan}, DocumentError),
    (docs.dump_document, {"x": np.float32(1)}, DocumentError),
    (docs.dump_document, {1: 2, "a": 3}, DocumentError),
    # What the envelope gate admits, with a payload JSON cannot hold.
    (docs.dump_document, {**KET_ENVELOPE, "payload": {"x": math.nan}}, DocumentError),
    (docs.dump_document, {**KET_ENVELOPE, "payload": {"x": np.float32(1)}}, DocumentError),
    (docs.dump_document, {**KET_ENVELOPE, "payload": {1: 2, "a": 3}}, DocumentError),
    # What load_document would refuse to open.
    (docs.dump_document, [1], DocumentError),
    (docs.ensemble_document, None, InvalidArgument),
    (docs.joint_document, None, InvalidArgument),
    (docs.umap_document, None, InvalidArgument),
    (docs.report_document, None, InvalidArgument),
    (docs.ancilla_basis_document, None, InvalidArgument),
]


@pytest.mark.parametrize(
    "write, value, error",
    WRITER_CATALOGUE,
    ids=[f"{w.__name__}-{v!r}" for w, v, _ in WRITER_CATALOGUE],
)
def test_writers_raise_typed_errors_for_malformed_values(write, value, error):
    with pytest.raises(error):
        write(value)


def test_rejects_unknown_kind():
    with pytest.raises(DocumentError):
        docs.load_document(json.dumps({"kind": "blob", "version": 1, "payload": {}}))


def test_rejects_wrong_version():
    with pytest.raises(DocumentError):
        docs.load_document(json.dumps({"kind": "ket", "version": 2, "payload": {}}))


def test_rejects_non_object():
    with pytest.raises(DocumentError):
        docs.load_document("[1, 2, 3]")


def test_rejects_invalid_json():
    with pytest.raises(DocumentError):
        docs.load_document("{not json")


@pytest.mark.parametrize(
    "text",
    [123, None, "[" * 10**5],
    ids=["int", "none", "nested_past_the_recursion_limit"],
)
def test_load_reports_what_json_cannot_parse_as_a_document_error(text):
    with pytest.raises(DocumentError, match="^invalid JSON: "):
        docs.load_document(text)


def test_dump_reports_nesting_past_the_recursion_limit_as_a_document_error():
    nested = []
    for _ in range(10**5):
        nested = [nested]
    with pytest.raises(DocumentError, match="^cannot serialize document: "):
        docs.dump_document({"kind": "ket", "version": 1, "payload": {"x": nested}})


def nested_past_the_recursion_limit():
    value = 0.0
    for _ in range(5000):
        value = [value]
    return value


DEEP = nested_past_the_recursion_limit()
DEEP_SHOWN = "a list nested past the recursion limit"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: docs.to_ket(envelope("ket", {"dim": 1, "entries": [DEEP]})),
         f"ket.entries: expected a [re, im] pair, got {DEEP_SHOWN}"),
        (lambda: docs.to_basis(envelope("basis", {"dim": 1, "kets": [[DEEP]]})),
         f"basis.kets[0]: expected a [re, im] pair, got {DEEP_SHOWN}"),
        (lambda: docs.to_matrix(envelope("matrix", {"rows": 1, "cols": 1, "entries": [[DEEP]]})),
         f"matrix.entries[0]: expected a [re, im] pair, got {DEEP_SHOWN}"),
        (lambda: docs.to_ket(envelope("ket", {"dim": DEEP})),
         f"ket.dim: expected a positive integer, got {DEEP_SHOWN}"),
        (lambda: docs.to_ket({"kind": DEEP}), f"unknown document kind {DEEP_SHOWN}"),
        (lambda: docs.dump_document({"kind": "ket", "version": DEEP}),
         f"unsupported document version {DEEP_SHOWN}"),
    ],
    ids=["pair", "basis_pair", "matrix_pair", "dim", "kind", "version"],
)
def test_an_entry_nested_past_the_recursion_limit_is_a_document_error(call, message):
    # Only a dict built in Python holds one; load_document refuses such text.
    with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
        call()


def test_dump_writes_only_what_load_opens():
    with pytest.raises(DocumentError, match="^document must be a JSON object$"):
        docs.dump_document([1])
    with pytest.raises(DocumentError, match="^unknown document kind None$"):
        docs.dump_document({})


READERS = [
    docs.to_ket,
    docs.to_matrix,
    docs.to_ensemble,
    docs.to_joint,
    docs.to_basis,
    docs.to_umap,
    docs.to_report,
]


@pytest.mark.parametrize("read", READERS, ids=lambda read: read.__name__)
def test_readers_open_a_dict_as_load_document_opens_its_text(read):
    kind = read.__name__.removeprefix("to_")
    other = "joint" if kind == "ket" else "ket"
    malformed = [
        None,
        "ab",
        [1],
        {},
        {"kind": kind, "version": 1},
        {"kind": kind, "version": 1, "payload": []},
        {"kind": kind, "version": 2, "payload": {}},
        {"kind": other, "version": 1, "payload": {}},
    ]
    for doc in malformed:
        try:
            docs.load_document(json.dumps(doc))
            message = f"expected a {kind!r} document, got {other!r}"
        except DocumentError as exc:
            message = str(exc)
        with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
            read(doc)


def test_rejects_dimension_mismatch():
    doc = {
        "kind": "ket",
        "version": 1,
        "payload": {"dim": 3, "entries": [[1.0, 0.0], [0.0, 0.0]]},
    }
    with pytest.raises(DocumentError):
        docs.to_ket(docs.load_document(json.dumps(doc)))


def envelope(kind, payload):
    return {"kind": kind, "version": 1, "payload": payload}


IDENTITY_PAIRS = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
UMAP_PAYLOAD = {
    "cols": 2,
    "generator": {"rows": 2, "cols": 2, "entries": IDENTITY_PAIRS},
    "basis": IDENTITY_PAIRS,
}


@pytest.mark.parametrize(
    "extract, doc, error, message",
    [
        (docs.load_document, '{"kind": "ket", "version": 1, "payload": []}', DocumentError,
         "document payload must be a JSON object"),
        (docs.to_ensemble, envelope("ensemble", {"dim": 2, "elements": []}), InvalidEnsemble,
         "ensemble must contain at least one element"),
        (docs.to_ensemble, envelope("ensemble", {"dim": 2, "elements": {}}), DocumentError,
         "ensemble.elements: expected an array"),
        (docs.to_basis, envelope("basis", {"dim": 2, "kets": []}), DocumentError,
         "basis.kets: expected a non-empty array"),
        (docs.to_umap,
         envelope("umap", {"rows": 2, "cols": 2, "coeffs": UMAP_PAYLOAD["generator"]}),
         DocumentError, "umap.generator: expected a matrix object"),
        (docs.to_umap, envelope("umap", {**UMAP_PAYLOAD, "cols": 3}), DocumentError,
         re.escape("umap.cols is 3, more than the generator's 2 columns")),
        (docs.to_umap, envelope("umap", {**UMAP_PAYLOAD, "basis": [[[1.0, 0.0]] * 2]}),
         DocumentError, "umap.basis: expected 2 kets"),
        (docs.to_umap,
         envelope("umap", {**UMAP_PAYLOAD, "basis": [[[1.0, 0.0]] * 2, [[1.0, 0.0]]]}),
         DocumentError, re.escape("umap.basis[1]: expected 2 entries")),
        (docs.to_umap, envelope("umap", {**UMAP_PAYLOAD, "basis": [[[1.0, 0.0]] * 3] * 2}),
         DocumentError, re.escape("umap.basis[0]: expected 2 entries")),
        (docs.to_umap, envelope("umap", {**UMAP_PAYLOAD, "basis": []}), DocumentError,
         "umap.basis: expected 2 kets"),
        (docs.to_umap, envelope("umap", {**UMAP_PAYLOAD, "basis": None}), DocumentError,
         "umap.basis: expected 2 kets"),
    ],
    ids=[
        "payload", "elements", "elements_object", "kets", "coeffs", "envelope_shape",
        "umap_basis", "umap_basis_ragged", "umap_basis_wide", "umap_basis_empty",
        "umap_basis_missing",
    ],
)
def test_rejects_malformed_payload_with_its_path(extract, doc, error, message):
    # An empty ensemble is well encoded: its constructor refuses it. A umap
    # basis is read at its generator's declared rows, so one of another shape
    # is not, and its reader refuses it.
    with pytest.raises(error, match=f"^{message}$") as info:
        extract(doc)
    assert type(info.value) is error


def test_rejects_non_finite_numbers():
    text = '{"kind": "ket", "version": 1, "payload": {"dim": 1, "entries": [[NaN, 0.0]]}}'
    with pytest.raises(DocumentError):
        docs.load_document(text)


def test_rejects_kind_mismatch_on_extract():
    doc = docs.joint_document(bell_joint())
    with pytest.raises(DocumentError):
        docs.to_ket(doc)


def test_rejects_malformed_pair():
    doc = {
        "kind": "ket",
        "version": 1,
        "payload": {"dim": 1, "entries": [[1.0, 0.0, 0.0]]},
    }
    with pytest.raises(DocumentError):
        docs.to_ket(docs.load_document(json.dumps(doc)))


# ---------------------------------------------------------------------------
# the array gate against a per-entry oracle


def oracle_is_number(x):
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        return False


def oracle_vector(value, dim, where):
    """Reference: one ``[re, im]`` pair at a time, as documents were first parsed."""
    if not isinstance(value, list) or len(value) != dim:
        raise DocumentError(f"{where}: expected {dim} entries")
    out = []
    for z in value:
        if not isinstance(z, list) or len(z) != 2 or not all(map(oracle_is_number, z)):
            raise DocumentError(f"{where}: expected a [re, im] pair, got {z!r}")
        out.append(complex(float(z[0]), float(z[1])))
    return np.array(out, dtype=complex)


def oracle_rows(rows, dim, where):
    return np.stack([oracle_vector(r, dim, where.format(i)) for i, r in enumerate(rows)])


def oracle_extract(kind, payload):
    if kind == "ket":
        return oracle_vector(payload["entries"], payload["dim"], "ket.entries")
    if kind == "matrix":
        entries = payload["entries"]
        if not isinstance(entries, list) or len(entries) != payload["rows"]:
            raise DocumentError(f"matrix: expected {payload['rows']} rows")
        return oracle_rows(entries, payload["cols"], "matrix.entries[{}]")
    if kind == "basis":
        return oracle_rows(payload["kets"], payload["dim"], "basis.kets[{}]")
    kets, weights = [], []
    for i, element in enumerate(payload["elements"]):
        if not isinstance(element, dict):
            raise DocumentError(f"ensemble.elements[{i}]: expected an object")
        if not oracle_is_number(element.get("weight")):
            raise DocumentError(f"ensemble.elements[{i}].weight: expected a number")
        weights.append(float(element["weight"]))
        where = f"ensemble.elements[{i}].ket"
        kets.append(oracle_vector(element.get("ket"), payload["dim"], where))
    return RhoEnsemble(kets=np.stack(kets), weights=np.array(weights))


EXTRACT = {
    "ket": docs.to_ket,
    "matrix": docs.to_matrix,
    "basis": docs.to_basis,
    "ensemble": docs.to_ensemble,
}

# Leaves that are not numbers the gate accepts, beside ones at the edge of
# the float range that it must keep bit-for-bit.
BAD_LEAVES = [True, False, "1", None, [1.0], [1.0, 2.0, 3.0], 10**400, json.loads("1e400")]
EDGE_LEAVES = [-0.0, 5e-324, -5e-324, 1e308, -1e308, 10**20, 0]
# Replacements for a whole [re, im] pair or a whole row.
BAD_PAIRS = [[1.0], [1.0, 2.0, 3.0], [[1.0, 0.0], 0.0], None, "1", 1.0, {"re": 1.0}]
BAD_ROWS = [None, "row", {"entries": []}, 1.0]
BAD_WEIGHTS = [10**400, True, None, "1", [0.5]]

# The six families of mutation step: the operations of each, and the values
# they put in place.
MUTATIONS = [
    (["leaf"], BAD_LEAVES + EDGE_LEAVES),
    (["pair"], BAD_PAIRS),
    (["row"], BAD_ROWS),
    (["short_row", "long_row", "drop_row", "extra_row"], [None]),
    (["weight"], BAD_WEIGHTS),
    (["element", "no_ket"], [None]),
]
FAMILY = {op: family for family, (ops, _) in enumerate(MUTATIONS) for op in ops}
GATE_CASES = 400


def leaf(rng):
    """A plain ``int`` or ``float``, the types ``json.loads`` makes (numpy's
    scalars would take another path through the gate): an edge leaf, an
    integer within 10**6, or a float from subnormal to near the float maximum."""
    source = int(rng.integers(3))
    if source == 0:
        return pick(rng, EDGE_LEAVES)
    if source == 1:
        return int(rng.integers(-(10**6), 10**6 + 1))
    return pick(rng, [-1.0, 1.0]) * 10.0 ** float(rng.uniform(-323.0, 308.0))


def draw(case):
    """Gate case ``case``: a kind, its shape, its leaves and weights, and one to
    three mutation steps, from one generator seeded by ``case``."""
    rng = np.random.default_rng(case)
    kind = pick(rng, sorted(EXTRACT))
    rows = 1 if kind == "ket" else int(rng.integers(1, 5))
    dim = int(rng.integers(1, 5))
    array = [[[leaf(rng), leaf(rng)] for _ in range(dim)] for _ in range(rows)]
    weights = [float(rng.uniform(0.01, 1.0)) for _ in range(rows)]
    steps = []
    for _ in range(int(rng.integers(1, 4))):
        ops, values = pick(rng, MUTATIONS)
        where = rng.integers(100, size=2).tolist() + [int(rng.integers(2))]
        steps.append(((pick(rng, ops), pick(rng, values)), *where))
    return kind, rows, dim, array, weights, steps


def outcome(extract, doc):
    try:
        value = extract(doc)
    except RhokitError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, RhoEnsemble):
        return "ok", value.kets.shape, value.kets.tobytes(), value.weights.tobytes()
    return "ok", value.shape, value.tobytes()


def gate_and_oracle(kind, payload):
    doc = {"kind": kind, "version": 1, "payload": payload}
    return outcome(EXTRACT[kind], doc), outcome(lambda d: oracle_extract(kind, payload), doc)


@pytest.mark.parametrize("kind", sorted(EXTRACT))
def test_each_bad_value_alone_matches_oracle(kind):
    def payload(rows):
        if kind == "ket":
            return {"dim": 2, "entries": rows[0]}
        if kind == "matrix":
            return {"rows": len(rows), "cols": 2, "entries": rows}
        if kind == "basis":
            return {"dim": 2, "kets": rows}
        return {"dim": 2, "elements": [{"weight": 0.5, "ket": r} for r in rows]}

    # Tagged, since True == 1 and False == 0 defeat a membership test.
    cases = [("leaf", v, "DocumentError") for v in BAD_LEAVES]
    cases += [("leaf", v, "ok") for v in EDGE_LEAVES]
    cases += [("pair", v, "DocumentError") for v in BAD_PAIRS]
    cases += [("row", v, "DocumentError") for v in BAD_ROWS]
    for place, value, expected in cases:
        for i, j, k in [(0, 0, 0), (0, 1, 1)] + [(1, 1, 0)] * (kind != "ket"):
            rows = [[[0.5, -0.0], [1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]]]
            if place == "row":
                rows[i] = value
            elif place == "pair":
                rows[i][j] = value
            else:
                rows[i][j][k] = value
            got, want = gate_and_oracle(kind, payload(rows))
            assert got == want, (value, i, j, k)
            assert got[0] == expected, (value, i, j, k)
    if kind == "ensemble":
        for value in BAD_WEIGHTS:
            elements = [{"weight": 0.5, "ket": [[1.0, 0.0], [0.0, 0.0]]}] * 2
            elements[1] = {"weight": value, "ket": [[0.0, 0.0]]}
            got, want = gate_and_oracle(kind, {"dim": 2, "elements": elements})
            message = "ensemble.elements[1].weight: expected a number"
            assert got == want == ("DocumentError", message)


def mutated(kind, rows, dim, array, weights, steps):
    """The payload of a gate case: ``array`` and ``weights`` after ``steps``."""
    elements = [{"weight": w, "ket": r} for w, r in zip(weights, array)]
    for (op, value), i, j, k in steps:
        i = i % len(array)
        row = array[i] if isinstance(array[i], list) else []
        j = j % max(len(row), 1)
        pair = row[j] if j < len(row) and isinstance(row[j], list) else []
        if op == "leaf" and k < len(pair):
            pair[k] = copy.deepcopy(value)
        elif op == "pair" and row:
            row[j] = copy.deepcopy(value)
        elif op == "row":
            array[i] = copy.deepcopy(value)
        elif op == "short_row" and row:
            array[i] = row[:-1]
        elif op == "long_row" and row:
            array[i] = row + [[0.0, 0.0]]
        elif op == "drop_row" and len(array) > 1:
            del array[i]
        elif op == "extra_row":
            array.append([[0.0, 1.0]] * dim)
        elif op == "weight":
            weights[i % len(weights)] = value
        elif op == "element":
            elements[i % len(elements)] = [weights[0]]
        elif op == "no_ket" and isinstance(elements[i % len(elements)], dict):
            elements[i % len(elements)] = {"weight": weights[0]}
    if kind == "ket":
        return {"dim": dim, "entries": array[0]}
    if kind == "matrix":
        return {"rows": rows, "cols": dim, "entries": array}
    if kind == "basis":
        return {"dim": dim, "kets": array}
    elements = [
        {**e, "weight": w, "ket": r} if isinstance(e, dict) and "ket" in e else e
        for e, w, r in zip(elements, weights, array)
    ]
    return {"dim": dim, "elements": elements}


@pytest.mark.parametrize("case", range(GATE_CASES))
def test_gate_matches_per_entry_oracle(case):
    kind, *drawn = draw(case)
    got, want = gate_and_oracle(kind, mutated(kind, *drawn))
    assert got == want


def test_gate_cases_reach_every_family_and_outcome():
    cases = [draw(n) for n in range(GATE_CASES)]
    families = {(kind, FAMILY[op]) for kind, *_, steps in cases for (op, _), *_ in steps}
    assert families == set(itertools.product(EXTRACT, range(len(MUTATIONS))))
    # The outcomes as the oracle gives them, which the gate must match.
    outcomes = {
        (kind, outcome(lambda _: oracle_extract(kind, mutated(kind, *drawn)), None)[0])
        for kind, *drawn in cases
    }
    assert set(itertools.product(EXTRACT, ["ok", "DocumentError"])) <= outcomes


# complex(re, im) keeps signed zeros, which re + 1j * im would not.
EDGE = np.array(
    [
        complex(-0.0, 1e308),
        complex(5e-324, -0.0),
        complex(1e308, -1e308),
        complex(-1e308, 5e-324),
    ]
)


@pytest.mark.parametrize(
    "build, extract",
    [
        (lambda: docs.ket_document(EDGE), docs.to_ket),
        (lambda: docs.matrix_document(EDGE.reshape(2, 2)), docs.to_matrix),
        (lambda: docs.basis_document(EDGE.reshape(2, 2)), docs.to_basis),
        (
            lambda: docs.ensemble_document(RhoEnsemble(EDGE.reshape(2, 2), [0.5, 0.5])),
            lambda d: docs.to_ensemble(d).kets,
        ),
    ],
    ids=["ket", "matrix", "basis", "ensemble"],
)
def test_compact_and_indented_documents_parse_to_the_same_bits(build, extract):
    doc = build()
    compact = docs.dump_document(doc)
    indented = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert compact.count("\n") == 1 and compact.endswith("\n")
    assert ", " not in compact and ": " not in compact
    assert compact == docs.dump_document(build())
    from_compact = extract(docs.load_document(compact))
    from_indented = extract(docs.load_document(indented))
    assert from_compact.tobytes() == from_indented.tobytes() == extract(doc).tobytes()
    assert np.asarray(from_compact).ravel().view(float).tobytes() == EDGE.view(float).tobytes()
