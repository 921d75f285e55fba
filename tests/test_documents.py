"""JSON document round-trips and schema rejection."""

import json

import numpy as np
import pytest

from rhokit import DocumentError, JointState, RhoEnsemble, UMap, steer
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
