"""Acceptance gate: randomized desk-scale checks of every constructive clause.

Each test prints one PASS/FAIL line with its observed worst-case statistics.
Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import time

import numpy as np

from rhokit import (
    JointState,
    RhoEnsemble,
    UMap,
    apply_unitary_umap,
    complete_orthonormal,
    documents as docs,
    eigen_ensemble,
    ensemble_containing,
    ensemble_from_basis,
    ensemble_to_density,
    ensembles_equal,
    lemma_unitary,
    match_purification,
    measure_ancilla,
    partial_trace_m,
    purify,
    steer,
    umap_between,
    validate_ensemble,
)
from rhokit.cli import main
from rhokit.steering import SteeringReport
from test_accuracy import WEIGHT_C
from helpers import (
    bits,
    mapping_residual,
    random_basis,
    random_ensemble,
    random_joint,
    random_ket,
    random_unitary,
    reconstruct_joint,
    weighted_projector_sum,
)


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")


def test_criterion_1_lemma_suite():
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    worst_residual = 0.0
    worst_unitarity = 0.0
    for _ in range(200):
        dim_s = int(rng.integers(2, 5))
        dim_m = int(rng.integers(2, 5))
        phi = random_joint(rng, dim_s, dim_m)
        v = random_unitary(rng, dim_m)
        chi = JointState(
            dim_s=dim_s, dim_m=dim_m, vec=np.kron(np.eye(dim_s), v) @ phi.vec
        )
        u = lemma_unitary(chi, phi)
        residual = float(
            np.linalg.norm(np.kron(np.eye(dim_s), u) @ phi.vec - chi.vec)
        )
        unitarity = float(np.max(np.abs(np.conj(u).T @ u - np.eye(dim_m))))
        worst_residual = max(worst_residual, residual)
        worst_unitarity = max(worst_unitarity, unitarity)
    elapsed = time.perf_counter() - started
    ok = worst_residual < 1e-8 and worst_unitarity < 1e-9 and elapsed < 10.0
    report(
        1,
        "lemma suite",
        ok,
        f"200 pairs, max residual {worst_residual:.2e}, "
        f"max unitarity deviation {worst_unitarity:.2e}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_2_purification_and_ancilla_uniqueness():
    rng = np.random.default_rng(1002)
    worst_traceback = 0.0
    worst_fidelity_gap = 0.0
    independent_cases = 0
    for _ in range(200):
        dim_s = int(rng.integers(2, 5))
        dim_m = int(rng.integers(2, 5))
        order = int(rng.integers(1, dim_m + 1))
        e = random_ensemble(rng, dim_s, order)
        joint, ancilla = purify(e, dim_m)
        rho = ensemble_to_density(e)
        worst_traceback = max(
            worst_traceback,
            float(np.max(np.abs(joint.reduced_system() - rho.matrix))),
        )
        if order <= dim_s:  # random kets are then linearly independent
            independent_cases += 1
            v = random_unitary(rng, dim_m)
            rotated = JointState(
                dim_s=dim_s, dim_m=dim_m, vec=np.kron(np.eye(dim_s), v) @ joint.vec
            )
            second = match_purification(e, rotated)
            expected = ancilla.kets @ v.T
            for ours, theirs in zip(second.kets, expected):
                gap = 1.0 - abs(np.vdot(ours, theirs))
                worst_fidelity_gap = max(worst_fidelity_gap, float(gap))
    ok = worst_traceback < 1e-9 and worst_fidelity_gap < 1e-8
    report(
        2,
        "purification",
        ok,
        f"200 ensembles, max trace-back {worst_traceback:.2e}; "
        f"{independent_cases} independent double-constructions, "
        f"max ancilla fidelity gap {worst_fidelity_gap:.2e}",
    )
    assert ok


def test_criterion_3_basis_roundtrip():
    rng = np.random.default_rng(1003)
    matches = 0
    worst_residual = 0.0
    for _ in range(200):
        dim_s = int(rng.integers(2, 5))
        dim_m = int(rng.integers(2, 5))
        order = int(rng.integers(1, dim_m + 1))
        e = random_ensemble(rng, dim_s, order)
        joint, ancilla = purify(e, dim_m)
        basis = complete_orthonormal(ancilla)
        derived, derived_ancilla, _ = ensemble_from_basis(joint, basis)
        if ensembles_equal(derived, e):
            matches += 1
        rebuilt = reconstruct_joint(derived, derived_ancilla.kets, dim_m)
        worst_residual = max(
            worst_residual, float(np.linalg.norm(rebuilt - joint.vec))
        )
    ok = matches == 200 and worst_residual < 1e-9
    report(
        3,
        "basis round trip",
        ok,
        f"{matches}/200 ensembles matched, max reconstruction residual "
        f"{worst_residual:.2e}",
    )
    assert ok


def test_criterion_4_interconversion_maps():
    rng = np.random.default_rng(1004)
    worst_columns = 0.0
    worst_mapping = 0.0
    mismatched_orders = 0
    for _ in range(200):
        dim_s = int(rng.integers(2, 4))
        base = random_ensemble(rng, dim_s, int(rng.integers(2, dim_s + 1)))
        sides = []
        for _ in range(2):
            if rng.random() < 0.25:
                sides.append(eigen_ensemble(ensemble_to_density(base)))
                continue
            dim_m = int(rng.integers(base.order, base.order + 3))
            joint, _ = purify(base, dim_m)
            derived, _, _ = ensemble_from_basis(joint, random_basis(rng, dim_m))
            sides.append(derived)
        from_e, to_e = sides
        if from_e.order != to_e.order:
            mismatched_orders += 1
        umap = umap_between(from_e, to_e)
        columns = float(
            np.max(np.abs(np.conj(umap.coeffs).T @ umap.coeffs - np.eye(umap.cols)))
        )
        worst_columns = max(worst_columns, columns)
        worst_mapping = max(worst_mapping, mapping_residual(umap, from_e, to_e))
    ok = worst_columns < 1e-9 and worst_mapping < 1e-8 and mismatched_orders > 0
    report(
        4,
        "interconversion maps",
        ok,
        f"200 same-density pairs ({mismatched_orders} order-mismatched), "
        f"max column deviation {worst_columns:.2e}, "
        f"max mapping residual {worst_mapping:.2e}",
    )
    assert ok


def test_criterion_5_unitary_generated_ensembles():
    rng = np.random.default_rng(1005)
    clean = 0
    worst_density = 0.0
    for _ in range(200):
        dim_s = int(rng.integers(2, 4))
        base = random_ensemble(rng, dim_s, int(rng.integers(2, dim_s + 1)))
        dim_m = int(rng.integers(base.order, base.order + 3))
        joint, _ = purify(base, dim_m)
        to_e, _ = apply_unitary_umap(
            joint, random_basis(rng, dim_m), random_unitary(rng, dim_m)
        )
        if validate_ensemble(to_e) == []:
            clean += 1
        rho = ensemble_to_density(base)
        worst_density = max(
            worst_density,
            float(np.max(np.abs(weighted_projector_sum(to_e) - rho.matrix))),
        )
    ok = clean == 200 and worst_density < 1e-9
    report(
        5,
        "unitary-generated ensembles",
        ok,
        f"{clean}/200 ensembles valid, max density deviation {worst_density:.2e}",
    )
    assert ok


def test_criterion_6_support_vector_membership():
    rng = np.random.default_rng(1006)
    worst_fidelity_gap = 0.0
    worst_weight_gap = 0.0  # in units of its bound, WEIGHT_C * n * eps times the weight
    for _ in range(200):
        dim_s = int(rng.integers(2, 5))
        dim_m = int(rng.integers(2, 5))
        joint = random_joint(rng, dim_s, dim_m)
        # Independent oracle: the weight formula evaluated on a direct SVD.
        u, s, _ = np.linalg.svd(joint.vec.reshape(dim_s, dim_m), full_matrices=False)
        rank = int(np.sum(s**2 > 1e-10))
        mix = rng.normal(size=rank) + 1j * rng.normal(size=rank)
        target = u[:, :rank] @ mix
        target = target / np.linalg.norm(target)
        gamma = np.conj(u[:, :rank]).T @ target
        expected_weight = 1.0 / float(np.sum(np.abs(gamma / s[:rank]) ** 2))
        ensemble, _ = ensemble_containing(joint, target)
        fidelity_gap = 1.0 - abs(np.vdot(ensemble.kets[0], target))
        weight_gap = abs(float(ensemble.weights[0]) - expected_weight)
        bound = WEIGHT_C * max(dim_s, dim_m) * np.finfo(float).eps * expected_weight
        worst_fidelity_gap = max(worst_fidelity_gap, float(fidelity_gap))
        worst_weight_gap = max(worst_weight_gap, weight_gap / bound)

    # Worked case: coefficients (sqrt(0.9), sqrt(0.1)), target = minor
    # eigenket, so the normalization sum is 10 and the weight exactly 0.1.
    vec = np.zeros(4, dtype=complex)
    vec[0] = np.sqrt(0.9)
    vec[3] = np.sqrt(0.1)
    minor = np.array([0.0, 1.0], dtype=complex)
    worked, _ = ensemble_containing(JointState(dim_s=2, dim_m=2, vec=vec), minor)
    worked_gap = abs(float(worked.weights[0]) - 0.1)

    ok = worst_fidelity_gap < 1e-9 and worst_weight_gap <= 1.0 and worked_gap < 1e-12
    report(
        6,
        "support-vector membership",
        ok,
        f"200 targets, max fidelity gap {worst_fidelity_gap:.2e}, "
        f"max weight deviation {worst_weight_gap:.2e} of its bound, "
        f"worked case deviation {worked_gap:.2e}",
    )
    assert ok


def test_criterion_7_steering():
    rng = np.random.default_rng(1007)
    worst_disturbance = 0.0
    for _ in range(100):
        dim_s = int(rng.integers(2, 5))
        dim_m = int(rng.integers(2, 5))
        joint = random_joint(rng, dim_s, dim_m)
        _, post = measure_ancilla(joint, random_basis(rng, dim_m))
        worst_disturbance = max(
            worst_disturbance,
            float(
                np.max(
                    np.abs(
                        partial_trace_m(post, dim_s, dim_m) - joint.reduced_system()
                    )
                )
            ),
        )

    fair = RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[0.5, 0.5])
    fair_joint, _ = purify(fair, 2)
    fair_report = steer(fair_joint, np.eye(2, dtype=complex), shots=10000, seed=20251)
    fair_ok = abs(fair_report.counts[0] - 5000) <= 4 * np.sqrt(10000 * 0.25)

    skewed = RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[0.9, 0.1])
    skew_joint, _ = purify(skewed, 2)
    skew_report = steer(skew_joint, np.eye(2, dtype=complex), shots=10000, seed=20252)
    skew_ok = abs(skew_report.counts[1] - 1000) <= 4 * np.sqrt(10000 * 0.09)

    first = docs.dump_document(
        docs.report_document(
            steer(skew_joint, np.eye(2, dtype=complex), shots=5000, seed=3)
        )
    )
    second = docs.dump_document(
        docs.report_document(
            steer(skew_joint, np.eye(2, dtype=complex), shots=5000, seed=3)
        )
    )
    identical = first == second

    ok = worst_disturbance < 1e-9 and fair_ok and skew_ok and identical
    report(
        7,
        "steering",
        ok,
        f"100 bases, max disturbance {worst_disturbance:.2e}; fair counts "
        f"{fair_report.counts}, skewed counts {skew_report.counts}, "
        f"byte-identical reports: {identical}",
    )
    assert ok


def _random_document(rng):
    kind = rng.choice(["ket", "matrix", "ensemble", "joint", "basis", "umap", "report"])
    if kind == "ket":
        return docs.ket_document(random_ket(rng, int(rng.integers(1, 7))))
    if kind == "matrix":
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        return docs.matrix_document(
            rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        )
    if kind == "ensemble":
        dim = int(rng.integers(2, 5))
        return docs.ensemble_document(
            random_ensemble(rng, dim, int(rng.integers(1, dim + 1)))
        )
    if kind == "joint":
        return docs.joint_document(
            random_joint(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        )
    if kind == "basis":
        dim = int(rng.integers(1, 5))
        return docs.basis_document(random_basis(rng, dim))
    if kind == "umap":
        dim = int(rng.integers(2, 5))
        u = random_unitary(rng, dim)
        cols = int(rng.integers(1, dim + 1))
        return docs.umap_document(UMap(generator=u, basis=np.eye(dim, dtype=complex), cols=cols))
    counts = [int(c) for c in rng.integers(0, 50, size=3)]
    weights = rng.random(3)
    weights = weights / weights.sum()
    post = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return docs.report_document(
        SteeringReport(
            counts=counts,
            expected_weights=weights,
            post_density=post,
        )
    )


def test_criterion_8_cli_pipeline_and_document_fuzz(tmp_path):
    ensemble = RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[0.5, 0.5])
    ensemble_path = tmp_path / "golden_ensemble.json"
    ensemble_path.write_text(docs.dump_document(docs.ensemble_document(ensemble)))
    joint_path = tmp_path / "joint.json"
    ancilla_path = tmp_path / "ancilla.json"
    derived_path = tmp_path / "derived.json"
    rc_purify = main(
        [
            "purify",
            str(ensemble_path),
            "--dim-m",
            "2",
            "--out",
            str(joint_path),
            "--ancilla-out",
            str(ancilla_path),
        ]
    )
    rc_derive = main(
        [
            "ensemble-from-basis",
            str(joint_path),
            str(ancilla_path),
            "--out",
            str(derived_path),
        ]
    )
    rc_verify = main(["verify", "--ensemble", str(derived_path)])
    pipeline_ok = (rc_purify, rc_derive, rc_verify) == (0, 0, 0)

    rng = np.random.default_rng(1008)
    roundtrips = 0
    for _ in range(100):
        doc = _random_document(rng)
        extract = getattr(docs, f"to_{doc['kind']}")
        reloaded = docs.load_document(docs.dump_document(doc))
        same = bits(extract(doc)) == bits(extract(reloaded))
        if same and docs.dump_document(doc) == docs.dump_document(reloaded):
            roundtrips += 1

    ok = pipeline_ok and roundtrips == 100
    report(
        8,
        "cli pipeline and documents",
        ok,
        f"pipeline exit codes {(rc_purify, rc_derive, rc_verify)}, "
        f"{roundtrips}/100 fuzzed documents round-tripped",
    )
    assert ok
