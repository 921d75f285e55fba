"""Checked once at the boundary: derived values hold every class invariant.

Public constructions check their arguments once and build what they return
without re-running the value types' own checks. These tests rebuild each
output through the checked constructors, which must accept it unchanged, and
show that bad tolerances are rejected before any arithmetic runs.

``catalogue()`` is the one list of public callables, each with a valid call.
Every per-name rule is derived from it: the tolerances a name takes, the
integers it refuses, the malformed arguments it answers with a result or a
typed error, its value-object parameters and its one boundary. Adding or
deleting a public name edits its catalogue entry and its entry in the
address-space sweep (``sweep`` in the child script below); a test checks each
list against the public API.
"""

import dataclasses
import inspect
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import rhokit
from rhokit import (
    DEFAULT_RANK_TOL,
    DEFAULT_TOL,
    Ancilla,
    DensityMatrix,
    DimensionMismatch,
    InvalidArgument,
    InvalidEnsemble,
    JointState,
    NotHermitian,
    NotNormalized,
    NotOrthonormal,
    NotOrthonormalBasis,
    NotUnitary,
    ResourceExhausted,
    RhoEnsemble,
    RhokitError,
    SteeringReport,
    UMap,
    WeightsNotNormalized,
    apply_unitary_umap,
    check_umap,
    complete_orthonormal,
    densities_match,
    eig_hermitian,
    eigen_ensemble,
    ensemble_containing,
    ensemble_from_basis,
    ensemble_to_density,
    ensembles_equal,
    is_linearly_independent,
    lemma_unitary,
    match_purification,
    measure_ancilla,
    partial_trace_m,
    purify,
    purification,
    sample_outcomes,
    schmidt_decompose,
    steer,
    tensor_ket,
    umap_between,
    validate_ensemble,
)
from rhokit import documents, linalg
from rhokit.linalg import as_ket_list, orthonormality_deviation
from helpers import bell_joint, bits, computational, pick, random_ensemble, random_unitary


def assert_rebuilds(value):
    """The checked constructor accepts ``value``'s fields and stores the same bits."""
    fields = {field.name: getattr(value, field.name) for field in dataclasses.fields(value)}
    assert bits(type(value)(**fields)) == bits(value)
    if isinstance(value, UMap):
        assert check_umap(value) == []


def joint_of_rank(rng, dim_s, dim_m, rank):
    """A normalized joint ket with exactly ``rank`` Schmidt coefficients."""
    coeffs = rng.random(rank) + 0.05
    coeffs /= np.linalg.norm(coeffs)
    left = random_unitary(rng, dim_s)[:, :rank]
    right = random_unitary(rng, dim_m)[:rank]
    a = (left * coeffs) @ right
    return JointState(dim_s=dim_s, dim_m=dim_m, vec=a.reshape(-1)), left


def laid_out(basis, layout):
    if layout == "F":
        return np.asfortranarray(basis)
    if layout == "strided":
        padded = np.zeros((2 * basis.shape[0], 2 * basis.shape[1]), dtype=complex)
        padded[::2, ::2] = basis
        return padded[::2, ::2]
    return basis


LAYOUTS = ["C", "F", "strided"]
OUTPUT_CASES = 120


def draw_outputs(case):
    """Output case ``case``: a seed, the dimensions, a Schmidt rank from 1 to
    full, a layout and the lean of ket 1 on ket 0, from one generator seeded
    by ``case``."""
    rng = np.random.default_rng(case)
    seed, dim_s, dim_m = int(rng.integers(2**32)), *rng.integers(1, 13, 2).tolist()
    rank = int(rng.integers(1, min(dim_s, dim_m) + 1))
    return seed, dim_s, dim_m, rank, pick(rng, LAYOUTS), float(rng.uniform(-10.0, -6.0))


@pytest.mark.parametrize("case", range(OUTPUT_CASES))
def test_outputs_rebuild_through_checked_constructors(case):
    seed, dim_s, dim_m, rank, layout, lean_exponent = draw_outputs(case)
    rng = np.random.default_rng(seed)
    joint, support = joint_of_rank(rng, dim_s, dim_m, rank)
    basis = laid_out(random_unitary(rng, dim_m), layout)

    # Ket 1 leans on ket 0: each basis-taking call returns iff the basis is
    # within the fixed 1e-8 of orthonormal. The identity rotates it exactly.
    leaned = np.array(basis)
    leaned[1:2] += 10.0**lean_exponent * leaned[0]
    leaned = laid_out(leaned, layout)
    admitted = orthonormality_deviation(leaned) <= 1e-8
    for call in (
        lambda: ensemble_from_basis(joint, leaned),
        lambda: steer(joint, leaned, 100, seed),
        lambda: measure_ancilla(joint, leaned),
        lambda: apply_unitary_umap(joint, leaned, np.eye(dim_m)),
    ):
        if admitted:
            call()
        else:
            with pytest.raises(NotOrthonormalBasis):
                call()

    ensemble, ancilla, _ = ensemble_from_basis(joint, basis)
    assert_rebuilds(ensemble)
    assert_rebuilds(ancilla)

    report = steer(joint, basis, 100, seed)
    assert_rebuilds(report)
    np.testing.assert_array_equal(report.expected_weights, ensemble.weights)
    # The unit-trace state of the conditioned ensemble's amplitudes.
    amplitudes = ensemble.kets.T * np.sqrt(ensemble.weights)
    flat = amplitudes.ravel(order="K")
    state = amplitudes @ np.conj(amplitudes).T * np.vdot(flat, flat).real ** -1.0
    np.testing.assert_array_equal(report.post_density, state)

    mixture, _ = measure_ancilla(joint, basis)
    weights, system_kets, ancilla_kets = zip(*mixture)
    assert_rebuilds(RhoEnsemble(kets=np.array(system_kets), weights=np.array(weights)))
    assert_rebuilds(Ancilla(dim_m=dim_m, kets=np.array(ancilla_kets)))

    unitary = laid_out(random_unitary(rng, dim_m), layout)
    to_e, umap = apply_unitary_umap(joint, basis, unitary)
    assert_rebuilds(to_e)
    assert_rebuilds(umap)

    target = support @ (rng.normal(size=rank) + 1j * rng.normal(size=rank))
    containing, containing_basis = ensemble_containing(
        joint, target / np.linalg.norm(target)
    )
    assert_rebuilds(containing)
    # The basis skipped both checks inside; the checked functions accept it and
    # compute the same values from it.
    np.testing.assert_array_equal(
        complete_orthonormal(Ancilla(dim_m, containing_basis)), containing_basis
    )
    assert bits(ensemble_from_basis(joint, containing_basis)[0]) == bits(containing)

    # Collinear conditionals (always, when dim_s is 1) are reported by
    # validate_ensemble, and purify, match_purification and umap_between take
    # them as they are.
    assert_rebuilds(purify(ensemble, dim_m)[1])
    assert_rebuilds(match_purification(ensemble, joint))
    assert_rebuilds(umap_between(ensemble, to_e))


def test_output_cases_reach_every_category():
    cases = [draw_outputs(n) for n in range(OUTPUT_CASES)]
    # Leaned bases both admitted and refused at the fixed 1e-8 (ket 1 leans
    # on ket 0 by 10**lean_exponent), clear of the threshold.
    assert {lean < -8 for _, _, dim_m, _, _, lean in cases
            if dim_m > 1 and abs(lean + 8) > 0.1} == {True, False}
    assert {layout for *_, layout, _ in cases} == set(LAYOUTS)
    ranks = {(rank == 1, rank == min(dim_s, dim_m)) for _, dim_s, dim_m, rank, *_ in cases}
    assert {(True, False), (False, True)} <= ranks  # rank 1 below full, and full above 1
    assert 1 in {dim_s for _, dim_s, *_ in cases} and 1 in {dim_m for _, _, dim_m, *_ in cases}


SPECTRUM_CASES = 100


def draw_spectrum(case):
    """Spectrum case ``case``: a seed, a dimension, a rank from 2 to full, extra
    ancilla dimensions and the exponent of the smallest weight, at either end
    of [-9.9, -1.0] in one case of three, from one generator seeded by ``case``."""
    rng = np.random.default_rng(case)
    seed, dim_s = int(rng.integers(2**32)), int(rng.integers(2, 8))
    rank, extra = int(rng.integers(2, dim_s + 1)), int(rng.integers(4))
    return seed, dim_s, rank, extra, pick(rng, [-9.9, -1.0, *rng.uniform(-9.9, -1.0, 4).tolist()])


@pytest.mark.parametrize("case", range(SPECTRUM_CASES))
def test_outputs_are_clean_for_spectra_down_to_rank_tol(case):
    seed, dim_s, rank, extra, exponent = draw_spectrum(case)
    # One weight, 10**exponent, reaches down to rank_tol. Every pair
    # density below is the reduced state compressed to directions inside its
    # support, so its smaller eigenvalue is at least that weight: no pair has
    # rank 1 at rank_tol. A two-dimensional ancilla keeps ensemble_from_basis
    # inside the support; past it a basis may give collinear members.
    rng = np.random.default_rng(seed)
    smallest = 10.0**exponent
    weights = rng.random(rank) + 0.05
    weights *= (1.0 - smallest) / weights[1:].sum()
    weights[0] = smallest
    kets = random_unitary(rng, dim_s)[:rank]
    spectral = RhoEnsemble(kets=kets, weights=weights)
    joint, _ = purify(spectral, rank + extra)
    target = kets.T @ (rng.normal(size=rank) + 1j * rng.normal(size=rank))
    containing, _ = ensemble_containing(joint, target / np.linalg.norm(target))

    pair = RhoEnsemble(kets=kets[:2], weights=[smallest, 1.0 - smallest])
    pair_joint, _ = purify(pair, 2)
    conditioned, _, _ = ensemble_from_basis(pair_joint, random_unitary(rng, 2))

    for e in (spectral, containing, pair, conditioned):
        assert validate_ensemble(e) == []
    for from_e, to_e in ((spectral, containing), (conditioned, pair)):
        assert check_umap(umap_between(from_e, to_e)) == []
    assert_rebuilds(match_purification(containing, joint))
    assert_rebuilds(match_purification(conditioned, pair_joint))


def test_spectrum_cases_reach_every_category():
    cases = [draw_spectrum(n) for n in range(SPECTRUM_CASES)]
    # 10**-9.9, about 1.26e-10, is the smallest weight just above rank_tol.
    assert {-9.9, -1.0} <= {exponent for *_, exponent in cases}
    assert {0, 3} <= {extra for *_, extra, _ in cases}
    ranks = {(rank == 2, rank == dim_s) for _, dim_s, rank, *_ in cases}
    assert {(True, False), (False, True)} <= ranks  # rank 2 below full, and full above 2


def test_basis_between_construct_and_given_tol_still_raises():
    # A lean of 1e-7 sits between the fixed 1e-8 and a looser tol of 1e-6.
    # No entry point takes a tol to loosen the bound, so the basis is refused.
    joint = JointState(dim_s=3, dim_m=3, vec=np.ones(9, dtype=complex) / 3.0)
    basis = random_unitary(np.random.default_rng(39), 3)
    basis[1] += 1e-7 * basis[0]
    for call in (
        lambda **kw: ensemble_from_basis(joint, basis, **kw),
        lambda **kw: measure_ancilla(joint, basis, **kw),
        lambda **kw: steer(joint, basis, 10, 0, **kw),
        lambda **kw: apply_unitary_umap(joint, basis, np.eye(3), **kw),
    ):
        with pytest.raises(TypeError, match="'tol'"):
            call(tol=1e-6)
        with pytest.raises(NotOrthonormalBasis):
            call()


@pytest.fixture
def checked_builds(monkeypatch):
    """Names of the classes whose checked ``__post_init__`` ran, in call order."""
    built = []
    for cls in (RhoEnsemble, Ancilla):

        def spy(self, cls=cls, check=cls.__post_init__):
            built.append(cls.__name__)
            check(self)

        monkeypatch.setattr(cls, "__post_init__", spy)
    return built


@pytest.mark.parametrize("lean", [0.0, 0.5e-8, 1e-7, 0.9e-6])
def test_bases_and_unitaries_are_admitted_at_one_fixed_threshold(checked_builds, lean):
    # Ket 1 of the basis, and row 1 of the unitary, lean on ket 0 by ``lean``;
    # each is admitted iff that stays within 1e-8. In the joint e0 (x) b0 only
    # ket 0 carries weight, so a skew confined to zero-weight kets is refused too.
    clean = random_unitary(np.random.default_rng(41), 3)
    basis = clean.copy()
    basis[1] += lean * basis[0]
    unitary = np.eye(3, dtype=complex)
    unitary[1] += lean * unitary[0]
    joints = [
        JointState(dim_s=3, dim_m=3, vec=np.ones(9, dtype=complex) / 3.0),
        JointState(dim_s=2, dim_m=3, vec=np.kron(computational(2, 0), clean[0])),
    ]
    for joint in joints:
        calls = [
            lambda: ensemble_from_basis(joint, basis),
            lambda: measure_ancilla(joint, basis),
            lambda: steer(joint, basis, 10, 0),
            lambda: apply_unitary_umap(joint, basis, np.eye(3)),
        ]
        if lean > 1e-8:
            for call in calls:
                with pytest.raises(NotOrthonormalBasis, match=r"\(tol 1\.000e-08\)$"):
                    call()
            with pytest.raises(NotUnitary, match=r"\(tol 1\.000e-08\)$"):
                apply_unitary_umap(joint, clean, unitary)
            continue
        (ensemble, ancilla, _), (mixture, _), _, (to_e, _) = [call() for call in calls]
        rotated_e, _ = apply_unitary_umap(joint, clean, unitary)
        assert checked_builds == []
        weights, system_kets, ancilla_kets = zip(*mixture)
        for value in (
            ensemble,
            ancilla,
            to_e,
            rotated_e,
            RhoEnsemble(kets=np.array(system_kets), weights=np.array(weights)),
            Ancilla(dim_m=3, kets=np.array(ancilla_kets)),
        ):
            assert_rebuilds(value)
        checked_builds.clear()


def verdict(call):
    """``call``'s error type, or None when it returns."""
    try:
        call()
    except RhokitError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("deviation", [0.0, 0.5e-8, 1e-7])
def test_kets_and_probability_vectors_are_admitted_at_one_fixed_threshold(deviation):
    # A target's norm, a joint's norm, an ancilla's lean and a weight sum each
    # miss 1 by ``deviation``; each is admitted iff that is within 1e-8, the
    # bound of JointState and Ancilla, which schmidt_decompose and
    # complete_orthonormal take.
    rng = np.random.default_rng(42)
    joint, support = joint_of_rank(rng, 3, 4, 2)
    target = support @ (rng.normal(size=2) + 1j * rng.normal(size=2))
    target *= (1.0 + deviation) / np.linalg.norm(target)
    scaled = joint.vec * (1.0 + deviation)
    partial = random_unitary(rng, 3)[:2]
    partial[1] += deviation * partial[0]
    weights = [0.5, 0.5 + deviation]
    if deviation > 1e-8:
        for call, error in (
            (lambda: ensemble_containing(joint, target), NotNormalized),
            (lambda: JointState(3, 4, scaled), NotNormalized),
            (lambda: Ancilla(3, partial), NotOrthonormal),
            (lambda: sample_outcomes(weights, 10, 0), WeightsNotNormalized),
        ):
            with pytest.raises(error, match=r"\(tol 1\.000e-08\)$"):
                call()
        return
    ensemble, _ = ensemble_containing(joint, target)
    assert validate_ensemble(ensemble) == []
    unit = target / np.linalg.norm(target)
    assert np.abs(ensemble.kets[0] - unit).max() <= 1e-8
    form = schmidt_decompose(JointState(3, 4, scaled))
    assert abs(np.sum(form.coefficients**2) - 1.0) <= 1e-12
    completed = complete_orthonormal(Ancilla(3, partial))
    np.testing.assert_array_equal(completed[:2], partial)
    assert orthonormality_deviation(completed) <= 2e-8
    assert sum(sample_outcomes(weights, 10, 0)) == 10


@pytest.mark.parametrize("deviation", [0.0, 0.5e-8, 1e-7])
def test_ensembles_and_matrices_are_admitted_at_one_fixed_threshold(deviation):
    # An ensemble's weights miss 1 by deviation * order and its kets miss unit
    # norm by deviation; a matrix misses Hermitian symmetry by deviation, and a
    # density its trace by deviation * n or its lowest eigenvalue by it. Each is
    # admitted iff that is within 1e-8, the bound of a ket, whatever tol a
    # call takes, and what is built from it passes the checkers at their defaults.
    for dim in (4, 16, 48, 96):
        rng = np.random.default_rng(dim)
        clean = random_ensemble(rng, dim, dim)
        e = RhoEnsemble(clean.kets * (1.0 + deviation), clean.weights * (1.0 + deviation * dim))
        target, _ = purify(clean, dim)
        clean_record = ensemble_to_density(clean)
        rho = clean_record.matrix
        skewed = rho.copy()
        skewed[0, 1] += deviation
        spectrum = np.full(dim, (1.0 + deviation) / (dim - 1))
        spectrum[-1] = -deviation
        unitary = random_unitary(rng, dim)
        negative = (unitary * spectrum) @ unitary.conj().T
        densities = [skewed, rho * (1.0 + deviation * dim), negative]
        if deviation > 1e-8:
            for call in (
                lambda: purify(e, dim),
                lambda: ensemble_to_density(e),
                lambda: match_purification(e, target),
                lambda: umap_between(e, clean),
            ):
                with pytest.raises(InvalidEnsemble):
                    call()
            for call in (lambda: eig_hermitian(skewed), lambda: DensityMatrix(skewed)):
                with pytest.raises(NotHermitian, match=r"\(tol 1\.000e-08\)$"):
                    call()
            for matrix, what in zip(densities[1:], ("trace", "negative eigenvalue")):
                with pytest.raises(InvalidArgument, match=f"^matrix has {what}"):
                    DensityMatrix(matrix)
            continue
        joint, _ = purify(e, dim)
        assert abs(np.linalg.norm(joint.vec) - 1.0) <= DEFAULT_TOL
        assert orthonormality_deviation(match_purification(e, joint).kets) <= DEFAULT_TOL
        assert check_umap(umap_between(e, eigen_ensemble(clean_record))) == []
        eig_hermitian(skewed)
        for record in [ensemble_to_density(e)] + [DensityMatrix(m) for m in densities]:
            assert validate_ensemble(eigen_ensemble(record)) == []


def test_values_between_the_default_tol_and_the_fixed_threshold_are_admitted():
    # Each misses by more than DEFAULT_TOL and less than 1e-8: k's norm misses
    # 1 by 2.6e-10, as a JointState and as an ensemble's ket alike.
    k = np.array([0.707106781, 0.707106781])
    assert verdict(lambda: JointState(2, 1, k)) is None
    joint, _ = purify(RhoEnsemble([k], [1.0]), 1)
    assert abs(np.linalg.norm(joint.vec) - 1.0) <= 1e-15
    eig_hermitian([[0.5, 1e-9], [0, 0.5]])
    record = DensityMatrix(np.diag([0.5, 0.499999999]))
    np.testing.assert_allclose(eigen_ensemble(record).weights, [0.5, 0.5], atol=1e-9)
    with pytest.raises(InvalidEnsemble, match="element 0 has norm"):
        purify(RhoEnsemble([k * (1 + 2e-8)], [1.0]), 1)


# ---------------------------------------------------------------------------
# The catalogue: the one list of the public callables. Every per-name rule
# below (tolerances, integers, malformed arguments, value objects, the one
# boundary) is derived from its entries.

MALFORMED = [
    None,
    "ab",
    [[1, 0], [0, 1, 0]],
    [object(), 1],
    0.5 + 1j,
    # numpy would drop these imaginary parts with only a warning.
    np.array([0.5 + 0.3j, 0.5]),
    [np.complex128(0.5 + 0.3j), 0.5],
    np.complex128(1e-10),
    True,
    -1,
    0,
    2.5,
    # Huge, but numpy refuses any array it sizes before allocating: 2**40
    # could map a 32 TiB joint ket on a host that overcommits.
    2**62,
]

# A plain record that stores what it is given: nothing in it to replace.
NO_CHECKED_ARGUMENT = {"SchmidtForm"}


def catalogue():
    """Name -> (callable, value-object arguments, replaceable valid arguments)
    for every public callable but ``NO_CHECKED_ARGUMENT``: those of
    ``rhokit.__all__`` and the writers and readers of ``rhokit.documents``.
    Valid arguments are listed in signature order."""
    e = random_ensemble(np.random.default_rng(7), 2, 2)
    joint = bell_joint()
    eye = np.eye(2, dtype=complex)
    ket = computational(2, 0)
    doc = documents.ket_document(eye[0])
    report = steer(joint, eye, shots=10, seed=0)
    entries = {
        "Ancilla": (Ancilla, {}, {"dim_m": 2, "kets": eye}),
        "DensityMatrix": (DensityMatrix, {}, {"matrix": eye / 2}),
        "JointState": (JointState, {}, {"dim_s": 2, "dim_m": 2, "vec": joint.vec}),
        "RhoEnsemble": (RhoEnsemble, {}, {"kets": e.kets, "weights": e.weights}),
        "SteeringReport": (
            SteeringReport,
            {},
            {"shots": 10, "counts": [4, 6], "expected_weights": [0.5, 0.5], "post_density": eye},
        ),
        "UMap": (UMap, {}, {"generator": eye, "basis": eye, "cols": 2}),
        "apply_unitary_umap": (
            apply_unitary_umap, {"joint": joint}, {"basis": eye, "u": eye, "rank_tol": 1e-10}
        ),
        "check_umap": (check_umap, {"u": UMap(eye, eye, 2)}, {"tol": 1e-10}),
        "complete_orthonormal": (complete_orthonormal, {"ancilla": Ancilla(2, [ket])}, {}),
        "densities_match": (densities_match, {"a": e, "b": e}, {"tol": 1e-10}),
        "eig_hermitian": (eig_hermitian, {}, {"m": eye / 2}),
        "ensemble_containing": (
            ensemble_containing, {"joint": joint}, {"xi": ket, "rank_tol": 1e-10}
        ),
        "ensemble_from_basis": (
            ensemble_from_basis, {"joint": joint}, {"basis": eye, "rank_tol": 1e-10}
        ),
        "eigen_ensemble": (
            eigen_ensemble, {"rho": ensemble_to_density(e)}, {"rank_tol": 1e-10}
        ),
        "ensemble_to_density": (ensemble_to_density, {"e": e}, {}),
        "ensembles_equal": (ensembles_equal, {"a": e, "b": e}, {"tol": 1e-8}),
        "is_linearly_independent": (
            is_linearly_independent, {"e": e}, {"rank_tol": 1e-10}
        ),
        "lemma_unitary": (lemma_unitary, {"chi": joint, "phi": joint}, {"tol": 1e-10}),
        "match_purification": (
            match_purification, {"e": e, "target": purify(e, 2)[0]}, {"tol": 1e-10}
        ),
        "measure_ancilla": (
            measure_ancilla, {"joint": joint}, {"basis": eye, "rank_tol": 1e-10}
        ),
        "partial_trace_m": (
            partial_trace_m, {}, {"joint": np.outer(joint.vec, joint.vec), "dim_s": 2, "dim_m": 2}
        ),
        "purify": (purify, {"e": e}, {"dim_m": 2}),
        "sample_outcomes": (
            sample_outcomes,
            {},
            {"weights": [0.5, 0.5], "shots": 10, "seed": 0},
        ),
        "schmidt_decompose": (schmidt_decompose, {"joint": joint}, {"rank_tol": 1e-10}),
        "steer": (
            steer, {"joint": joint}, {"basis": eye, "shots": 10, "seed": 0, "rank_tol": 1e-10}
        ),
        "tensor_ket": (tensor_ket, {}, {"s": ket, "m": ket}),
        "umap_between": (umap_between, {"from_e": e, "to_e": e}, {"tol": 1e-10}),
        "validate_ensemble": (validate_ensemble, {"e": e}, {"tol": 1e-10}),
        "ancilla_basis_document": (
            documents.ancilla_basis_document, {"ancilla": Ancilla(2, eye)}, {}
        ),
        "dump_document": (documents.dump_document, {}, {"doc": doc}),
        "load_document": (documents.load_document, {}, {"text": documents.dump_document(doc)}),
    }
    writers = {
        "ket": (documents.ket_document, {}, {"vec": eye[0]}),
        "matrix": (documents.matrix_document, {}, {"m": eye}),
        "basis": (documents.basis_document, {}, {"kets": eye}),
        "ensemble": (documents.ensemble_document, {"e": e}, {}),
        "joint": (documents.joint_document, {"state": joint}, {}),
        "umap": (documents.umap_document, {"u": UMap(eye, eye, 2)}, {}),
        "report": (documents.report_document, {"report": report}, {}),
    }
    for kind, (write, objects, valid) in writers.items():
        entries[f"{kind}_document"] = (write, objects, valid)
        read = getattr(documents, f"to_{kind}")
        entries[f"to_{kind}"] = (read, {}, {"doc": write(**objects, **valid)})
    return entries


def public_callables():
    return {
        name
        for name in rhokit.__all__
        if callable(value := getattr(rhokit, name))
        and not (isinstance(value, type) and issubclass(value, Exception))
    }


def documents_functions():
    """The public functions of ``rhokit.documents``: its writers and readers."""
    return {
        name: value
        for name, value in vars(documents).items()
        if inspect.isfunction(value)
        and value.__module__ == documents.__name__
        and not name.startswith("_")
    }


def public_surface():
    """Every public callable by name, as ``catalogue`` must list it."""
    return {name: getattr(rhokit, name) for name in public_callables()} | documents_functions()


def test_catalogue_covers_every_public_callable():
    public = public_surface()
    listed = {name: call for name, (call, _, _) in catalogue().items()}
    assert listed | {name: public.get(name) for name in NO_CHECKED_ARGUMENT} == public


def off_the_boundary(in_documents):
    """The catalogue's callables in or out of ``rhokit.documents`` that skip
    the one ``_public`` wrapper, and with it the rules."""
    boundary = linalg._public(lambda: None).__code__
    entries = [] if in_documents else [JointState.reduced_system]
    for call, _, _ in catalogue().values():
        if (call.__module__ == documents.__name__) == in_documents:
            entries.append(call.__post_init__ if isinstance(call, type) else call)
    return [entry.__qualname__ for entry in entries if entry.__code__ is not boundary]


def test_every_public_callable_passes_the_one_boundary():
    assert off_the_boundary(in_documents=False) == []


def test_every_documents_function_passes_the_one_boundary():
    assert off_the_boundary(in_documents=True) == []


def tolerances(valid):
    """The tolerances a catalogue entry takes: its valid arguments so named."""
    return [arg for arg in valid if arg in ("tol", "rank_tol")]


def test_every_public_tolerance_is_checked_by_the_one_rule():
    entries = catalogue()
    for name, value in public_surface().items():
        taken = tolerances(inspect.signature(value).parameters)
        assert tolerances(entries[name][2] if name in entries else {}) == taken, name


def test_every_public_tolerance_defaults_to_its_one_constant():
    # A tol judges only agreement: at a gate, in a reporter or in a predicate.
    defaults = {"tol": DEFAULT_TOL, "rank_tol": DEFAULT_RANK_TOL}
    signatures = {
        name: inspect.signature(getattr(rhokit, name)).parameters for name in public_callables()
    }
    for name, params in signatures.items():
        for arg in tolerances(params):
            assert params[arg].default is defaults[arg], (name, arg)
    assert {name for name, params in signatures.items() if "tol" in params} == {
        "match_purification", "umap_between", "lemma_unitary", "validate_ensemble",
        "check_umap", "densities_match", "ensembles_equal",
    }


# numpy orders its complex numbers, so a comparison alone would accept these.
COMPLEX_TOLERANCES = (
    1e-10 + 0j,
    np.complex128(1e-10),
    np.complex64(1e-10),
    np.array(1e-10 + 0j),
)
# Bools compare as 0 and 1, an array of one entry as that entry and an int
# past the float range below inf, so a comparison alone would accept these too;
# the last six are no real number at all.
BAD_TOLERANCES = COMPLEX_TOLERANCES + (
    np.nan, np.inf, -np.inf, -1.0, True, np.True_, np.array([1e-10]), 10**400,
    "ab", "1e-3", None, 1j, [1e-10], np.array([1e-3, 1e-3]),
)


@pytest.mark.parametrize("name", sorted(catalogue()))
def test_bad_tolerances_raise_typed_error_without_warning(name):
    call, objects, valid = catalogue()[name]
    call(**objects, **valid)  # accepted at a valid tolerance
    if "tol" not in valid:  # no tol moves the fixed admission threshold
        with pytest.raises(TypeError, match="'tol'"):
            call(**objects, **valid, tol=1e-10)
    for param in tolerances(valid):
        for bad in BAD_TOLERANCES:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(
                    InvalidArgument, match=f"^{param} must be a finite non-negative number"
                ):
                    call(**objects, **{**valid, param: bad})
            assert caught == [], (param, bad)


# Floats are refused, not truncated (10.5 shots were once drawn as 10), and
# so are bools; 0 is refused too, except as a seed.
BAD_INTEGERS = (None, True, "3", 2.0, 1.5, 2.5, 10.5, -2, -1)


@pytest.mark.parametrize(
    "name, arg",
    sorted(
        (name, arg)
        for name, (_, _, valid) in catalogue().items()
        for arg, value in valid.items()
        if type(value) is int
    ),
)
def test_every_integer_argument_is_a_checked_integer(name, arg):
    call, objects, valid = catalogue()[name]
    minimum = 0 if arg == "seed" else 1
    for bad in BAD_INTEGERS + tuple(range(minimum)):  # and 0 below a minimum of 1
        with pytest.raises(
            InvalidArgument, match=rf"^{arg} must be an integer (>= |in \[){minimum}\b"
        ):
            call(**objects, **{**valid, arg: bad})


# Both dimensions bad at once: the first one checked is the one reported.
@pytest.mark.parametrize(
    "call",
    [
        lambda: JointState(-2, -2, np.ones(4) / 2),
        lambda: JointState(2.5, 1.6, np.ones(4) / 2),
        lambda: JointState(True, 4, np.ones(4) / 2),
        lambda: partial_trace_m(np.ones(4), -2, -2),
        lambda: partial_trace_m(np.ones(4), None, 2),
        lambda: Ancilla(None, np.eye(2)),
        lambda: Ancilla(0, []),
    ],
)
def test_every_dimension_is_a_checked_integer(call):
    with pytest.raises(InvalidArgument, match=r"^dim_[sm] must be an integer >= 1"):
        call()


@pytest.mark.parametrize("name", sorted(catalogue()))
def test_every_malformed_argument_returns_or_raises_a_typed_error(name):
    call, objects, valid = catalogue()[name]
    call(**objects, **valid)  # the valid call is accepted
    untyped, peak = [], 0
    tracemalloc.start()
    try:
        for arg in valid:
            for bad in MALFORMED:
                tracemalloc.reset_peak()
                try:
                    call(**objects, **{**valid, arg: bad})
                except RhokitError:
                    pass
                except Exception as exc:  # an untyped error: what this test looks for
                    untyped.append((arg, repr(bad), type(exc).__name__, str(exc)))
                peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert untyped == []
    assert peak < 4 * 2**20


def test_a_failed_allocation_past_the_first_gram_matrix_is_resource_exhausted(monkeypatch):
    # check_umap's last step, the row basis's Gram matrix, runs after the
    # Gram matrices of the coefficients and the generator.
    calls = []

    def exhausted(kets):
        calls.append(kets)
        if len(calls) == 3:
            raise MemoryError("Unable to allocate the row basis's Gram matrix")
        return orthonormality_deviation(kets)

    monkeypatch.setattr(purification, "orthonormality_deviation", exhausted)
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ResourceExhausted, match="^check_umap needs more memory") as info:
        check_umap(UMap(eye, eye, 2))
    assert type(info.value.__cause__) is MemoryError


def exhausted(*args, **kwargs):
    raise MemoryError("Unable to allocate 1.00 TiB")


class Unallocatable:
    """A factor whose product with anything needs more memory than is available."""

    def __setitem__(self, index, value):
        pass

    def __matmul__(self, other):
        exhausted()


def assert_exhausted(name, call):
    with pytest.raises(ResourceExhausted, match=f"^{name} needs more memory") as info:
        call()
    assert type(info.value.__cause__) is MemoryError


def test_failed_allocations_after_the_first_factorization_are_resource_exhausted(monkeypatch):
    # Each step follows the call's first SVD or eigendecomposition, past the
    # peak at which the address-space sweep makes a call fail.
    e = random_ensemble(np.random.default_rng(11), 2, 2)
    joint, _ = purify(e, 2)
    svd = linalg._svd
    polar_product = [
        ("lemma_unitary", lambda: lemma_unitary(joint, joint)),
        ("match_purification", lambda: match_purification(e, joint)),
        ("umap_between", lambda: umap_between(e, e)),
    ]
    with monkeypatch.context() as patch:  # _lemma's W @ V^dag
        patch.setattr(purification, "_svd", lambda m, **o: (Unallocatable(), *svd(m, **o)[1:]))
        for name, call in polar_product:
            assert_exhausted(name, call)
    # ensemble_containing's Schmidt SVD runs in linalg; its later steps do not.
    def containing():
        return ensemble_containing(joint, computational(2, 0))

    for patched, replacement in [
        ("_svd", exhausted),  # the rotation completing the target
        ("_svd", lambda m, **o: (*svd(m, **o)[:2], Unallocatable())),  # rotation @ V^dag
        ("_at_unit_norm", exhausted),  # the conditioning on the new basis
    ]:
        with monkeypatch.context() as patch:
            patch.setattr(purification, patched, replacement)
            assert_exhausted("ensemble_containing", containing)
    with monkeypatch.context() as patch:  # eig_hermitian's reordering, after eigh
        patch.setattr(np, "argsort", exhausted)
        assert_exhausted("eig_hermitian", lambda: eig_hermitian(np.diag([0.25, 0.75])))


def test_a_failed_allocation_in_any_documents_function_is_resource_exhausted(monkeypatch):
    # Each function is called as the catalogue calls it, with one helper it
    # runs replaced: the envelope gate under dump_document, load_document and
    # the readers, the pair encoder under the writers, and the nested
    # basis_document under ancilla_basis_document.
    helpers = {
        "dump_document": "_admit_envelope",
        "load_document": "_admit_envelope",
        "ancilla_basis_document": "basis_document",
    }
    entries = {
        name: entry
        for name, entry in catalogue().items()
        if entry[0].__module__ == documents.__name__
    }
    for name, (call, objects, valid) in entries.items():
        reader = name.startswith("to_")
        helper = helpers.get(name, "_admit_envelope" if reader else "_complex_payload")
        with monkeypatch.context() as patch:
            patch.setattr(documents, helper, exhausted)
            assert_exhausted(name, lambda: call(**objects, **valid))
    # A ResourceExhausted from a nested public call passes through unchanged.
    call, objects, _ = entries["ancilla_basis_document"]
    monkeypatch.setattr(documents, "_complex_payload", exhausted)
    assert_exhausted("basis_document", lambda: call(**objects))


@pytest.mark.parametrize(
    "name", sorted(name for name, (_, objects, _) in catalogue().items() if objects)
)
def test_every_value_object_parameter_rejects_none(name):
    call, objects, valid = catalogue()[name]
    for arg, value in objects.items():
        expected = f"^{arg} must be a {type(value).__name__}, got NoneType$"
        with pytest.raises(InvalidArgument, match=expected):
            call(**{**objects, arg: None}, **valid)


def test_ket_list_accepts_every_layout_and_sequence_alike():
    kets = random_unitary(np.random.default_rng(43), 3)[:2]
    forms = [
        kets,
        laid_out(kets, "F"),
        laid_out(kets, "strided"),
        kets.tolist(),
        tuple(tuple(row) for row in kets.tolist()),
        (row for row in kets),
    ]
    for form in forms:
        converted = as_ket_list(form, dim=3)
        assert converted.dtype == complex
        np.testing.assert_array_equal(converted, kets)
    empty = as_ket_list([], dim=3)
    assert empty.shape == (0, 3) and empty.dtype == complex


@pytest.mark.parametrize(
    "kets, error",
    [
        ([[1, 0], [0, 1, 0]], DimensionMismatch),
        ([np.ones(2), np.ones(3)], DimensionMismatch),
        ([1, 0], DimensionMismatch),
        ("ab", InvalidArgument),
        ([[object(), 1]], InvalidArgument),
        (None, DimensionMismatch),
    ],
    ids=["ragged", "ragged-arrays", "flat", "string", "object", "none"],
)
def test_malformed_ket_list_raises_its_typed_error(kets, error):
    with pytest.raises(error):
        as_ket_list(kets)


def test_complex_or_string_weights_are_invalid_arguments():
    complex_forms = (
        [0.5 + 1j, 0.5],
        np.array([0.5 + 0.3j, 0.5]),
        [np.complex128(0.5 + 0.3j), 0.5],
        np.array([0.5 + 0j, 0.5]),
    )
    for weights in (["ab", 0.5], *complex_forms):
        with pytest.raises(InvalidArgument, match="^cannot convert to an array of float64"):
            RhoEnsemble(kets=np.eye(2, dtype=complex), weights=weights)
        with pytest.raises(InvalidArgument):
            sample_outcomes(weights, 10, 0)


@pytest.mark.parametrize("dim", [2**59, 2**64, 10**30], ids=["2^59", "2^64", "10^30"])
def test_sizes_numpy_cannot_represent_are_resource_exhausted(dim):
    e = RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[0.5, 0.5])
    with pytest.raises(ResourceExhausted, match=f"[*]{dim} needs more memory") as info:
        purify(e, dim)
    assert isinstance(info.value, MemoryError)
    assert type(info.value.__cause__) is ValueError


def test_a_completion_numpy_cannot_represent_is_resource_exhausted():
    # An ancilla's ket of 2**40 entries, held as a view of one entry, is
    # representable; its 2**40 x 2**40 completion is not.
    dim = 2**40
    ket = np.lib.stride_tricks.as_strided(np.ones(1, dtype=complex), (1, dim), (0, 0))
    ancilla = purification._trusted(Ancilla, dim_m=dim, kets=ket)
    with pytest.raises(ResourceExhausted, match=f" {dim} needs more memory") as info:
        complete_orthonormal(ancilla)
    assert isinstance(info.value, MemoryError)
    assert type(info.value.__cause__) is ValueError


# One child process runs public calls under a lowered address-space limit.
# Before each call it lowers its own soft RLIMIT_AS to its current size plus
# a margin, and it restores the limit after the call, so nothing more is
# asked of the host. Each call must return or raise a RhokitError; anything
# else is printed with the last rhokit frame it passed through.
#
# Given a margin and names, the child runs the named calls of
# `past_the_limit` at that margin. Each builds a dense product of 64 GiB
# (measure_ancilla's joint density) or 256 GiB (a system density, the Gram
# matrix of 2**17 kets, or the lemma's product of two joints on an ancilla
# of 2**17) from a joint ket or ket list of at most 2 MiB: failure points
# that no call which succeeds unlimited can reach. "validate_ensemble after
# its Gram matrix" builds a Gram matrix of 48 MiB that fits, then its 24 MiB
# of magnitudes, which do not. "ensemble_to_density of 3000 kets" takes an
# ensemble of 3000 orthonormal kets (144 MiB, built before the limit) and
# fails at its eigendecomposition with 512 MiB of room, or at the
# temporaries of the kets' norms with 128 MiB. "measure_ancilla of 256
# conditioned kets" conditions a joint ket of 2048 x 256 (8 MiB) and fails
# at the 2 GiB of its outcomes' joint kets.
#
# Given "sweep", the child runs the `sweep` cases: one call of each public
# callable, and of one writer and one reader of rhokit.documents, on valid
# arguments whose dense temporaries take a few MiB to a few tens of MiB. A
# process forked for the case runs the call once unlimited and reports how far
# it grew the address space: VmPeak, which starts at the size on fork, less
# that size. That peak P counts what the limit counts, LAPACK's workspaces
# and every step after the call's first factorization included. Then the
# call runs once unlimited (mapping what it maps once) and with margins P,
# P/2, P/4, P/8 and P/16, none under 1 MiB, so that the interpreter can still
# allocate. Two settings keep the limit on the arrays:
# - glibc raises its mmap threshold to the largest block freed, which would
#   leave the unlimited call's arrays in the heap for the limited calls to
#   reuse. A fixed threshold returns each array of 128 KiB or more to the
#   system when it is freed.
# - numpy 2.4.6 allocates a ufunc's buffers after releasing the GIL, and a
#   failed allocation there crashes the process (SIGSEGV in PyErr_NoMemory)
#   instead of raising MemoryError. The child keeps those buffers at 1 KiB,
#   small enough for the heap's free space, so that they do not meet the
#   limit.
DENSE_PRODUCTS_PAST_THE_LIMIT = """
import os
import resource
import sys
import traceback
import numpy as np
import rhokit as rk
from rhokit import documents

np.setbufsize(64)  # 1 KiB buffers: see above

def joint(dim_s, dim_m=1):
    vec = np.zeros(dim_s * dim_m, dtype=complex)
    vec[0] = 1.0
    return rk.JointState(dim_s, dim_m, vec)

def ket(dim):
    return rk.RhoEnsemble(joint(dim).vec[None], [1.0])

def past_the_limit():
    small, large, wide = joint(2**16), joint(2**17), joint(1, 2**17)
    orthonormal = rk.RhoEnsemble(np.eye(3000, dtype=complex), np.full(3000, 1 / 3000))
    rank_256, _ = rk.purify(rk.RhoEnsemble(np.eye(256, 2048), np.full(256, 1 / 256)), 256)
    return {
        "measure_ancilla": lambda: rk.measure_ancilla(small, [[1.0]]),
        "measure_ancilla of 256 conditioned kets": lambda: rk.measure_ancilla(
            rank_256, np.eye(256)
        ),
        "steer": lambda: rk.steer(large, [[1.0]], shots=1, seed=0),
        "lemma_unitary": lambda: rk.lemma_unitary(large, large),
        "lemma_unitary on a large ancilla": lambda: rk.lemma_unitary(wide, wide),
        "match_purification on a large ancilla": lambda: rk.match_purification(
            rk.RhoEnsemble([[1.0]], [1.0]), wide
        ),
        "ensemble_to_density of 3000 kets": lambda: rk.ensemble_to_density(orthonormal),
        "validate_ensemble": lambda: rk.validate_ensemble(
            rk.RhoEnsemble(np.ones((2**17, 1)), np.full(2**17, 2.0**-17))
        ),
        "ensemble_to_density": lambda: rk.ensemble_to_density(ket(2**17)),
        "densities_match": lambda: rk.densities_match(ket(2**17), ket(2**17)),
        "validate_ensemble after its Gram matrix": lambda: rk.validate_ensemble(
            rk.RhoEnsemble(np.ones((1774, 1)), np.full(1774, 1 / 1774))
        ),
    }

def unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (r.diagonal() / abs(r.diagonal()))

def fan(count):  # count unit kets over a half turn of the plane, no two collinear
    angles = np.linspace(0.0, np.pi, count, endpoint=False)
    return np.stack([np.cos(angles), np.sin(angles)], 1)

def sweep():
    rng = np.random.default_rng(5)
    n = 256
    u = unitary(rng, n)
    w = np.linspace(1.0, 2.0, n) / (1.5 * n)
    e = rk.RhoEnsemble(u, w)
    j, _ = rk.purify(e, n)
    rho = rk.ensemble_to_density(e)
    form = rk.schmidt_decompose(j)
    half = rk.Ancilla(n, u[: n // 2])
    real_eye = np.eye(n)  # real arguments are converted to complex arrays
    # Arrays taken as they are: a joint ket of 2048 x 1024, a joint operator
    # on 32 x 32 and 2**20 outcome weights.
    big = np.full(2**21, 2.0**-10.5, dtype=complex)
    square = np.full((1024, 1024), 2.0**-10, dtype=complex)
    outcomes = np.full(2**20, 2.0**-20)
    # Order x order products built from factors of order x 2.
    plane = rk.RhoEnsemble(fan(1024), np.full(1024, 1 / 1024))
    # A map of 1024 rows whose generator is a Householder reflection, read
    # in the identity basis over 512 columns. Each 1024 x 1024 product or
    # Gram matrix and its conjugate operand (32 MiB) set the peak.
    reflection = np.eye(1024) - np.full((1024, 1024), 2 / 1024)
    reflected = rk.UMap(reflection, np.eye(1024), 512)
    # A joint ket of 1024 x 64: the conditionals outgrow the basis checks.
    tall, _ = rk.purify(rk.RhoEnsemble(np.eye(64, 1024), np.full(64, 1 / 64)), 64)
    tall_basis = unitary(rng, 64)
    small, _ = rk.purify(rk.RhoEnsemble(unitary(rng, 32), np.full(32, 1 / 32)), 32)
    small_basis = unitary(rng, 32)
    written = documents.ensemble_document(e)
    return {
        "Ancilla": lambda: rk.Ancilla(n, real_eye),
        "DensityMatrix": lambda: rk.DensityMatrix(rho.matrix),
        "JointState": lambda: rk.JointState(2048, 1024, big),
        "RhoEnsemble": lambda: rk.RhoEnsemble(real_eye, w),
        "SchmidtForm": lambda: rk.SchmidtForm(form.coefficients, form.left_kets, form.right_kets),
        "SteeringReport": lambda: rk.SteeringReport(n, [1] * n, w, rho.matrix),
        "UMap": lambda: rk.UMap(real_eye, real_eye, n),
        "apply_unitary_umap": lambda: rk.apply_unitary_umap(j, u, u),
        "check_umap": lambda: rk.check_umap(reflected),
        "complete_orthonormal": lambda: rk.complete_orthonormal(half),
        "densities_match": lambda: rk.densities_match(e, e),
        "eig_hermitian": lambda: rk.eig_hermitian(rho.matrix),
        "eigen_ensemble": lambda: rk.eigen_ensemble(rho),
        "ensemble_containing": lambda: rk.ensemble_containing(j, u[0]),
        "ensemble_from_basis": lambda: rk.ensemble_from_basis(tall, tall_basis),
        "ensemble_to_density": lambda: rk.ensemble_to_density(e),
        "ensembles_equal": lambda: rk.ensembles_equal(plane, plane),
        "is_linearly_independent": lambda: rk.is_linearly_independent(e),
        "lemma_unitary": lambda: rk.lemma_unitary(j, j),
        "match_purification": lambda: rk.match_purification(e, j),
        "measure_ancilla": lambda: rk.measure_ancilla(small, small_basis),
        "partial_trace_m": lambda: rk.partial_trace_m(square, 32, 32),
        "purify": lambda: rk.purify(e, n),
        "sample_outcomes": lambda: rk.sample_outcomes(outcomes, 10**6, 0),
        "schmidt_decompose": lambda: rk.schmidt_decompose(j),
        "steer": lambda: rk.steer(j, u, 10**6, 0),
        "tensor_ket": lambda: rk.tensor_ket(u[0], np.full(4096, 1 / 64)),
        "umap_between": lambda: rk.umap_between(e, e),
        "validate_ensemble": lambda: rk.validate_ensemble(plane),
        "ensemble_document": lambda: documents.ensemble_document(e),
        "to_ensemble": lambda: documents.to_ensemble(written),
    }

def outcome(call, margin):  # "returned", or the error; untyped, with rhokit's last frame
    with open("/proc/self/statm") as statm:
        size = int(statm.read().split()[0]) * resource.getpagesize()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (size + margin, hard))
    try:
        call()
        return "returned", ""
    except rk.RhokitError as exc:
        return type(exc).__name__, str(exc)
    except Exception as exc:
        # Without lookup_lines, which would read source files under the limit.
        tb = traceback.walk_tb(exc.__traceback__)
        stack = traceback.StackSummary.extract(tb, lookup_lines=False)
        frames = [f for f in stack if "rhokit" in f.filename]
        where = f"{frames[-1].filename.rsplit('/', 1)[-1]}:{frames[-1].lineno}" if frames else "?"
        return f"untyped {type(exc).__name__}", f"at {where}: {exc}"
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

def vm_peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) << 10 for line in status if line.startswith("VmPeak:"))

def address_space_peak(call):  # the growth of one unlimited call, in a forked process
    read, write = os.pipe()
    child = os.fork()
    if child == 0:
        start = vm_peak()
        call()
        os.write(write, str(vm_peak() - start).encode())
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        peak = int(pipe.read())
    os.waitpid(child, 0)
    return peak

np.ones((2, 2), dtype=complex) @ np.ones((2, 2), dtype=complex)  # BLAS buffers first
if sys.argv[1] == "sweep":
    for name, call in sweep().items():
        call()
        peak = address_space_peak(call)
        for margin in sorted({max(peak >> k, 2**20) for k in range(5)}, reverse=True):
            print(name, f"{margin / 2**20:.2f}MiB", *outcome(call, margin), flush=True)
else:
    calls = past_the_limit()
    for name in sys.argv[2:]:
        print(name, outcome(calls[name], int(sys.argv[1]))[0], flush=True)
"""


def outcomes_under_the_limit(margin, names=()):
    """The child's lines for ``names`` at ``margin`` bytes, or for the sweep."""
    done = subprocess.run(
        [sys.executable, "-X", "faulthandler", "-c", DENSE_PRODUCTS_PAST_THE_LIMIT,
         str(margin), *names],
        capture_output=True,
        text=True,
        env={
            **os.environ,
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MALLOC_MMAP_THRESHOLD_": "131072",
        },
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout.splitlines()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_dense_products_past_the_address_space_limit_are_resource_exhausted():
    names = [
        "measure_ancilla",
        "steer",
        "lemma_unitary",
        "validate_ensemble",
        "ensemble_to_density",
        "densities_match",
        "lemma_unitary on a large ancilla",
        "match_purification on a large ancilla",
        "ensemble_to_density of 3000 kets",
        "measure_ancilla of 256 conditioned kets",
    ]
    outcomes = outcomes_under_the_limit(2**29, names)
    assert outcomes == [f"{name} ResourceExhausted" for name in names]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_temporaries_after_the_gram_matrix_are_resource_exhausted():
    name = "validate_ensemble after its Gram matrix"
    assert outcomes_under_the_limit(2**26, [name]) == [f"{name} ResourceExhausted"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_temporaries_of_the_element_norms_are_resource_exhausted():
    name = "ensemble_to_density of 3000 kets"
    assert outcomes_under_the_limit(2**27, [name]) == [f"{name} ResourceExhausted"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_every_public_call_under_a_falling_address_space_limit_raises_only_typed_errors():
    lines = outcomes_under_the_limit("sweep")
    names = public_callables() | {"ensemble_document", "to_ensemble"}
    assert {line.split()[0] for line in lines} == names
    untyped = [line for line in lines if " untyped " in line]
    assert not untyped, "\n".join(untyped)


def test_invalid_argument_inside_an_allocation_is_not_resource_exhausted(monkeypatch):
    def invalid(e, dim_m):
        raise InvalidArgument("vector contains non-finite entries")

    monkeypatch.setattr(purification, "_amplitude_block", invalid)
    e = RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[0.5, 0.5])
    with pytest.raises(InvalidArgument, match="^vector contains"):
        purify(e, 2)
