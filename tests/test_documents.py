"""JSON document round-trips and schema rejection."""

import copy
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhokit import DocumentError, JointState, RhoEnsemble, RhokitError, UMap, steer
from rhokit import documents as docs
from helpers import bell_joint, minus_ket, plus_ket, random_ket, random_unitary


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
    umap = UMap(coeffs=u[:, :2], generator=u, basis=np.eye(3, dtype=complex))
    doc = docs.load_document(docs.dump_document(docs.umap_document(umap)))
    out = docs.to_umap(doc)
    np.testing.assert_array_equal(out.coeffs, umap.coeffs)
    np.testing.assert_array_equal(out.generator, umap.generator)
    np.testing.assert_array_equal(out.basis, umap.basis)


def test_umap_roundtrip_without_optionals():
    rng = np.random.default_rng(5)
    umap = UMap(coeffs=random_unitary(rng, 2))
    doc = docs.load_document(docs.dump_document(docs.umap_document(umap)))
    out = docs.to_umap(doc)
    assert out.generator is None and out.basis is None


def test_report_roundtrip_exact():
    report = steer(bell_joint(), np.eye(2, dtype=complex), shots=100, seed=9)
    doc = docs.load_document(docs.dump_document(docs.report_document(report)))
    out = docs.to_report(doc)
    assert out.shots == report.shots
    assert out.counts == report.counts
    np.testing.assert_array_equal(out.expected_weights, report.expected_weights)
    np.testing.assert_array_equal(out.post_density, report.post_density)


@pytest.mark.parametrize(
    "field, value, path",
    [
        ("counts", [1, 2], "report.counts"),
        ("expected_weights", [-3.0, 7.0], "report.expected_weights"),
    ],
)
def test_report_rejects_inconsistent_statistics(field, value, path):
    report = steer(bell_joint(), np.eye(2, dtype=complex), shots=100, seed=9)
    doc = docs.report_document(report)
    doc["payload"][field] = value
    with pytest.raises(DocumentError, match=f"^{re.escape(path)}:"):
        docs.to_report(doc)


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
    umap = UMap(coeffs=square[:, :2], generator=square, basis=square.T)

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
                {
                    "rows": 3,
                    "cols": 2,
                    "coeffs": matrix(square[:, :2]),
                    "generator": matrix(square),
                    "basis": _pairs(square.T),
                },
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


def test_rejects_dimension_mismatch():
    doc = {
        "kind": "ket",
        "version": 1,
        "payload": {"dim": 3, "entries": [[1.0, 0.0], [0.0, 0.0]]},
    }
    with pytest.raises(DocumentError):
        docs.to_ket(docs.load_document(json.dumps(doc)))


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

mutations = st.one_of(
    st.tuples(st.just("leaf"), st.sampled_from(BAD_LEAVES + EDGE_LEAVES)),
    st.tuples(st.just("pair"), st.sampled_from(BAD_PAIRS)),
    st.tuples(st.just("row"), st.sampled_from(BAD_ROWS)),
    st.tuples(st.sampled_from(["short_row", "long_row", "drop_row", "extra_row"]), st.none()),
    st.tuples(st.just("weight"), st.sampled_from(BAD_WEIGHTS)),
    st.tuples(st.sampled_from(["element", "no_ket"]), st.none()),
)


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


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(sorted(EXTRACT)),
    rows=st.integers(1, 4),
    dim=st.integers(1, 4),
    steps=st.lists(
        st.tuples(mutations, st.integers(0, 99), st.integers(0, 99), st.integers(0, 1)),
        min_size=1,
        max_size=3,
    ),
    data=st.data(),
)
def test_gate_matches_per_entry_oracle(kind, rows, dim, steps, data):
    if kind == "ket":
        rows = 1
    leaf = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-(10**6), 10**6),
        st.sampled_from(EDGE_LEAVES),
    )
    array = [[[data.draw(leaf), data.draw(leaf)] for _ in range(dim)] for _ in range(rows)]
    weights = [data.draw(st.floats(0.01, 1.0)) for _ in range(rows)]
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
        payload = {"dim": dim, "entries": array[0]}
    elif kind == "matrix":
        payload = {"rows": rows, "cols": dim, "entries": array}
    elif kind == "basis":
        payload = {"dim": dim, "kets": array}
    else:
        elements = [
            {**e, "weight": w, "ket": r} if isinstance(e, dict) and "ket" in e else e
            for e, w, r in zip(elements, weights, array)
        ]
        payload = {"dim": dim, "elements": elements}
    got, want = gate_and_oracle(kind, payload)
    assert got == want


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
