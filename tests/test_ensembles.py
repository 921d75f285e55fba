"""Ensemble data model: density construction, validation, equality."""

import dataclasses
import functools
import inspect
import math
import re

import numpy as np
import pytest

from rhokit import (
    DensitiesDiffer,
    DensityMatrix,
    DimensionMismatch,
    InvalidArgument,
    InvalidEnsemble,
    JointState,
    NotHermitian,
    RhoEnsemble,
    densities_match,
    eig_hermitian,
    eigen_ensemble,
    ensemble_to_density,
    ensembles_equal,
    is_linearly_independent,
    lemma_unitary,
    match_purification,
    purify,
    schmidt_decompose,
    umap_between,
    validate_ensemble,
)
from rhokit.ensembles import _unmet_hypotheses
from rhokit.linalg import orthonormality_deviation
from helpers import (
    SAME_DENSITY_CASES,
    SAME_DENSITY_DIMS,
    STATE_GAPS,
    SUM_OFFSETS,
    computational,
    draw_same_density,
    minus_ket,
    pick,
    plus_ket,
    random_ensemble,
    random_ket,
    random_unitary,
    same_density_pair,
    weighted_projector_sum,
)


def equal_mixture_computational():
    return RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[0.5, 0.5])


def equal_mixture_plus_minus():
    return RhoEnsemble(kets=[plus_ket(), minus_ket()], weights=[0.5, 0.5])


# ---------------------------------------------------------------------------
# construction


def test_construction_rejects_zero_weight():
    with pytest.raises(InvalidEnsemble):
        RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[1.0, 0.0])


def test_construction_rejects_negative_weight():
    with pytest.raises(InvalidEnsemble):
        RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[1.5, -0.5])


def test_construction_rejects_empty():
    with pytest.raises(InvalidEnsemble):
        RhoEnsemble(kets=np.zeros((0, 2), dtype=complex), weights=[])


def test_construction_rejects_count_mismatch():
    with pytest.raises(DimensionMismatch, match=r"^2 kets but \(1,\) weights"):
        RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[1.0])


def test_element_iteration_preserves_order():
    e = equal_mixture_plus_minus()
    kets = [k for k, _ in e.elements()]
    np.testing.assert_array_equal(kets[0], plus_ket())
    np.testing.assert_array_equal(kets[1], minus_ket())


# ---------------------------------------------------------------------------
# ensemble_to_density


def test_density_computational_mixture():
    rho = ensemble_to_density(equal_mixture_computational())
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


def test_density_is_basis_independent():
    rho = ensemble_to_density(equal_mixture_plus_minus())
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


def test_density_hand_summed_case():
    # 0.75 |e1><e1| + 0.25 |+><+| worked out entry by entry.
    e = RhoEnsemble(kets=[computational(2, 0), plus_ket()], weights=[0.75, 0.25])
    rho = ensemble_to_density(e)
    expected = np.array([[0.875, 0.125], [0.125, 0.125]])
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)


def test_density_invariants_random():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 5))
        order = int(rng.integers(1, dim + 2))
        rho = ensemble_to_density(random_ensemble(rng, dim, order))
        assert np.max(np.abs(rho.matrix - np.conj(rho.matrix).T)) < 1e-12
        assert rho.spectrum[-1] > -1e-10
        assert abs(float(np.sum(rho.spectrum)) - 1.0) < 1e-10
        rebuilt = np.einsum(
            "s,si,sj->ij", rho.spectrum, rho.eigenkets, np.conj(rho.eigenkets)
        )
        assert np.max(np.abs(rebuilt - rho.matrix)) < 1e-9
        assert eigen_ensemble(rho).order <= rho.dim


def test_each_ket_lies_in_support():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        e = random_ensemble(rng, 3, int(rng.integers(1, 5)))
        rho = ensemble_to_density(e)
        support = rho.eigenkets[: eigen_ensemble(rho).order]
        projector = support.T @ np.conj(support)
        for ket, _ in e.elements():
            assert np.linalg.norm(projector @ ket - ket) < 1e-8


def test_density_with_zero_rank_tol_accepts_order_below_dim():
    # Round-off leaves the exactly-zero eigenvalues of this rank-2 sum
    # slightly positive; that must not read as a support larger than the order.
    e = random_ensemble(np.random.default_rng(0), 4, 2)
    rho = ensemble_to_density(e)
    assert np.max(np.abs(rho.matrix - weighted_projector_sum(e))) < 1e-12
    spectral = eigen_ensemble(rho, rank_tol=0.0)
    assert np.max(np.abs(weighted_projector_sum(spectral) - rho.matrix)) < 1e-12


def test_density_of_an_ensemble_admitted_at_tol_zero():
    # The projector sum of these kets misses Hermitian symmetry by 1.4e-17 in
    # rounding; an ensemble that meets the hypotheses at tol 0 still has a
    # density Hermitian bit for bit, which its record rebuilds unchanged.
    rng = np.random.default_rng(0)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    e = RhoEnsemble(z / np.linalg.norm(z, axis=1)[:, None], [0.5, 0.25, 0.25])
    assert _unmet_hypotheses(e, 0.0) == []
    rho = ensemble_to_density(e)
    assert np.array_equal(rho.matrix, rho.matrix.conj().T)
    assert np.array_equal(rho.spectrum, DensityMatrix(rho.matrix).spectrum)


def test_density_of_an_admitted_weight_sum_is_over_its_trace():
    # Weights summing to 1 + 0.9 * tol * order pass the hypotheses; their
    # projector sum has that trace, which at order 6 > dim 4 misses the
    # record's tol * dim. The density over its trace is purify's reduced state.
    rng = np.random.default_rng(3)
    e = random_ensemble(rng, 4, 6)
    e = RhoEnsemble(e.kets, e.weights / e.weights.sum() * (1 + 0.9e-10 * e.order))
    assert _unmet_hypotheses(e, 1e-10) == []
    rho = ensemble_to_density(e)
    eps = np.finfo(float).eps
    assert abs(np.trace(rho.matrix).real - 1.0) <= rho.dim * eps
    reduced = purify(e, e.order)[0].reduced_system()
    assert np.max(np.abs(rho.matrix - reduced)) <= SPECTRAL_C * rho.dim * eps


def test_density_rejects_invalid_ensemble():
    bad = RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[0.6, 0.6])
    with pytest.raises(InvalidEnsemble):
        ensemble_to_density(bad)


def test_density_from_matrix_roundtrip():
    rho = ensemble_to_density(equal_mixture_computational())
    again = DensityMatrix(rho.matrix)
    np.testing.assert_allclose(again.spectrum, rho.spectrum, atol=1e-12)
    assert eigen_ensemble(again).order == eigen_ensemble(rho).order


def test_density_from_matrix_rejects_bad_trace():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2, dtype=complex))


def test_bad_values_raise_typed_invalid_argument():
    with pytest.raises(InvalidArgument):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(InvalidArgument):
        RhoEnsemble(kets=[[1.0, np.nan]], weights=[1.0])
    with pytest.raises(InvalidArgument):
        RhoEnsemble(kets=[[1.0, 0.0]], weights=[np.inf])


def test_messages_render_plain_floats():
    with pytest.raises(InvalidEnsemble) as weight_error:
        RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[1.5, -0.5])
    assert str(weight_error.value) == "element 1 has non-positive weight -0.5"
    with pytest.raises(InvalidArgument) as eigenvalue_error:
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
    assert str(eigenvalue_error.value).startswith("matrix has negative eigenvalue -0.5 ")


@pytest.mark.parametrize(
    "build",
    [
        lambda: DensityMatrix(np.eye(2, dtype=complex) / 2),
        lambda: ensemble_to_density(equal_mixture_computational()),
    ],
    ids=["density_from_matrix", "ensemble_to_density"],
)
def test_rank_tol_at_or_above_every_eigenvalue_is_an_invalid_argument(build):
    # I/2 keeps its two eigenvalues of 1/2 below the cutoff and none from it up,
    # so eigen_ensemble never returns an ensemble of order 0.
    rho = build()
    assert eigen_ensemble(rho, rank_tol=0.49).order == 2
    for rank_tol in (0.5, 0.75):
        message = f"^rank_tol {rank_tol:.3e} is not below the largest eigenvalue 5.000e-01$"
        with pytest.raises(InvalidArgument, match=message):
            eigen_ensemble(rho, rank_tol=rank_tol)


def test_eigen_ensemble_decomposes_density():
    rng = np.random.default_rng(21)
    rho = ensemble_to_density(random_ensemble(rng, 3, 4))
    spectral = eigen_ensemble(rho)
    assert spectral.order == int(np.count_nonzero(rho.spectrum > 1e-10))
    assert np.max(np.abs(weighted_projector_sum(spectral) - rho.matrix)) < 1e-10


TOLERANCE = "rank_tol must be a finite non-negative number, got "
CUTOFF = r" is not below the largest eigenvalue 5\.000e-01$"


@pytest.mark.parametrize(
    "field, value, error, message",
    [
        ("rank_tol", "x", InvalidArgument, TOLERANCE + "'x'$"),
        ("rank_tol", 1.5, InvalidArgument, r"rank_tol 1\.500e\+00" + CUTOFF),
        ("rank_tol", -1, InvalidArgument, TOLERANCE + "-1$"),
        ("rank_tol", 0, None, None),
        ("rank_tol", True, InvalidArgument, TOLERANCE + "True$"),
        ("rank_tol", 3, InvalidArgument, r"rank_tol 3\.000e\+00" + CUTOFF),
    ],
    ids=[
        "rank_text", "rank_fraction", "rank_negative", "rank_zero", "rank_bool",
        "rank_past_spectrum",
    ],
)
def test_eigen_ensemble_admits_the_fields_of_the_record_it_reads(field, value, error, message):
    # The record derived its eigendata from its matrix when it was built (see
    # the constructor cases below), so the one value eigen_ensemble admits is
    # the cutoff: the record holds no rank, and rank_tol counts it.
    rho = DensityMatrix(np.eye(2) / 2)
    call = functools.partial(eigen_ensemble, rho, rank_tol=value)
    if error is None:
        assert call().order == 2
        return
    with pytest.raises(error, match=f"^{message}"):
        call()


@pytest.mark.parametrize(
    "matrix, error, message",
    [
        (np.ones((2, 3)) / 2, DimensionMismatch, r"matrix is not square: \(2, 3\)$"),
        (None, DimensionMismatch, r"expected a 2-D matrix, got shape \(\)$"),
        ([[np.nan, 0.0], [0.0, 0.5]], InvalidArgument, "matrix contains non-finite entries$"),
        (
            [[0.5, 1.0], [0.0, 0.5]],
            NotHermitian,
            r"matrix deviates from Hermitian symmetry by 1\.000e\+00 \(tol 1\.000e-08\)$",
        ),
        (5 * np.eye(2), InvalidArgument, r"matrix has trace 10\.0, expected 1$"),
        (
            np.diag([0.7, 0.5, -0.2]),
            InvalidArgument,
            r"matrix has negative eigenvalue -0\.2 \(tol 1\.000e-08\)$",
        ),
    ],
    ids=["not_square", "none", "not_finite", "not_hermitian", "trace", "negative"],
)
def test_density_matrix_admits_the_one_value_it_holds(matrix, error, message):
    # Built or replaced, a record judges its matrix, so a matrix that is not a
    # density is refused where it is given. The last two are Hermitian: their
    # spectra would become weights (5, 5) and (0.7, 0.5), summing past 1.
    with pytest.raises(error, match=f"^{message}"):
        DensityMatrix(matrix)
    with pytest.raises(error, match=f"^{message}"):
        dataclasses.replace(DensityMatrix(np.eye(2) / 2), matrix=matrix)


def test_a_record_takes_no_hand_set_eigendata():
    rho = DensityMatrix(np.eye(2) / 2)
    assert list(inspect.signature(DensityMatrix).parameters) == ["matrix"]
    with pytest.raises(ValueError, match="^field spectrum is declared with init=False"):
        dataclasses.replace(rho, spectrum=[0.7, 0.7])


def test_a_replaced_matrix_brings_its_own_spectral_ensemble():
    # Eigendata kept from diag(0.7, 0.3) would give weights (0.7, 0.3): the
    # spectral ensemble of another density.
    rho = dataclasses.replace(DensityMatrix(np.diag([0.7, 0.3])), matrix=np.diag([0.2, 0.8]))
    spectral = eigen_ensemble(rho)
    np.testing.assert_array_equal(spectral.weights, [0.8, 0.2])
    swapped = RhoEnsemble(kets=[computational(2, 1), computational(2, 0)], weights=[0.8, 0.2])
    assert ensembles_equal(spectral, swapped)


def test_density_from_matrix_holds_the_hermitian_part_it_decomposes():
    # Holding the raw matrix, the record would miss its own spectral ensemble
    # by the 5e-12 of the asymmetry it decomposed away.
    m = np.array([[0.75, 0.25 + 1e-11], [0.25, 0.25]], dtype=complex)
    rho = DensityMatrix(m)
    hermitian = (m + m.conj().T) / 2
    assert not np.array_equal(hermitian, m)
    np.testing.assert_array_equal(rho.matrix, hermitian)
    spectrum, eigenkets = eig_hermitian(hermitian)
    np.testing.assert_array_equal(rho.spectrum, spectrum)
    np.testing.assert_array_equal(rho.eigenkets, eigenkets)
    spectral = eigen_ensemble(rho, rank_tol=0.0)
    bound = SPECTRAL_C * rho.dim * np.finfo(float).eps
    assert np.max(np.abs(weighted_projector_sum(spectral) - rho.matrix)) <= bound


def test_records_follow_their_arrays():
    # The counts are read from the arrays, so no record can disagree with them.
    rho = DensityMatrix(np.eye(2) / 2)
    form = schmidt_decompose(JointState(2, 2, np.array([1, 0, 0, 1]) / math.sqrt(2)))
    assert dataclasses.replace(rho, matrix=np.eye(3) / 3).dim == 3
    assert dataclasses.replace(form, coefficients=form.coefficients[:1]).rank == 1
    assert [f.name for f in dataclasses.fields(rho)] == ["matrix", "spectrum", "eigenkets"]
    assert [f.name for f in dataclasses.fields(form)] == [
        "coefficients", "left_kets", "right_kets"
    ]


# The spectral identity's accuracy: eigen_ensemble(rho, 0) rebuilds rho.matrix,
# and its kets are orthonormal, each within SPECTRAL_C * n * eps in the max
# norm (n the dimension). Over 5000 cases of draw_density the worst was
# 2.25 n eps (the orthonormality at n = 4) and 1.75 n eps for the
# reconstruction; SPECTRAL_C keeps a margin of 4 above it. Two eigenkets
# rotated into each other by 1e-11 break the bound at n = 4 and 16, rarely
# beyond: the residual of such a rotation shrinks with n as rho's entries do.

SPECTRAL_C = 9.0
ACCURACY_CASES = 60
ACCURACY_DIMS = [4, 16, 48, 96, 160]
BUILDERS = ["ensemble_to_density", "DensityMatrix"]


def draw_density(case):
    """Accuracy case ``case``: a seed, a builder, a dimension, a rank from 2 to
    full, extra kets for ``ensemble_to_density`` and the exponent of the
    smallest weight, at either end of [-9.9, -1.0] in one case of three, from
    one generator seeded by ``case``."""
    rng = np.random.default_rng(case)
    seed, builder, dim = int(rng.integers(2**32)), pick(rng, BUILDERS), pick(rng, ACCURACY_DIMS)
    rank, extra = int(rng.integers(2, dim + 1)), int(rng.integers(4))
    exponent = pick(rng, [-9.9, -1.0, *rng.uniform(-9.9, -1.0, 4).tolist()])
    return seed, builder, dim, rank, extra, exponent


def drawn_density(seed, builder, dim, rank, extra, exponent):
    """The density of ``rank`` random orthonormal kets whose smallest weight is
    ``10**exponent``: the ``DensityMatrix`` of its matrix as a product (so
    Hermitian only to rounding), or ``ensemble_to_density`` of ``rank + extra``
    non-orthogonal kets that sum to it, its amplitudes mixed by an isometry."""
    rng = np.random.default_rng(seed)
    smallest = 10.0**exponent
    weights = rng.random(rank) + 0.05
    weights *= (1.0 - smallest) / weights[1:].sum()
    weights[0] = smallest
    amplitudes = np.sqrt(weights)[:, None] * random_unitary(rng, dim)[:rank]
    if builder == "DensityMatrix":
        return DensityMatrix(amplitudes.T @ amplitudes.conj())
    mixed = random_unitary(rng, rank + extra)[:, :rank] @ amplitudes
    norms = np.linalg.norm(mixed, axis=1)
    return ensemble_to_density(RhoEnsemble(kets=mixed / norms[:, None], weights=norms**2))


@pytest.mark.parametrize("case", range(ACCURACY_CASES))
def test_spectral_ensemble_is_accurate_to_a_few_n_eps(case):
    drawn = draw_density(case)
    rho = drawn_density(*drawn)
    spectral = eigen_ensemble(rho, rank_tol=0.0)
    bound = SPECTRAL_C * rho.dim * np.finfo(float).eps
    residual = np.max(np.abs(weighted_projector_sum(spectral) - rho.matrix))
    assert residual <= bound, (drawn, residual / bound)
    assert orthonormality_deviation(spectral.kets) <= bound, drawn
    assert validate_ensemble(eigen_ensemble(rho)) == [], drawn


def test_accuracy_cases_reach_every_category():
    cases = [draw_density(n) for n in range(ACCURACY_CASES)]
    assert {(builder, dim) for _, builder, dim, *_ in cases} == {
        (builder, dim) for builder in BUILDERS for dim in ACCURACY_DIMS
    }
    # 10**-9.9, about 1.26e-10, is the smallest weight just above rank_tol.
    assert {-9.9, -1.0} <= {exponent for *_, exponent in cases}
    ranks = {(rank == 2, rank == dim) for _, _, dim, rank, *_ in cases}
    assert {(True, False), (False, True)} <= ranks  # rank 2 below full, and full above 2
    mixed = {extra for _, builder, *_, extra, _ in cases if builder == "ensemble_to_density"}
    assert {0, 3} <= mixed


# ---------------------------------------------------------------------------
# validate_ensemble


def test_validate_clean():
    assert validate_ensemble(equal_mixture_computational()) == []


def test_validate_reports_weight_sum():
    e = RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[0.6, 0.6])
    report = validate_ensemble(e)
    assert any("sum" in line for line in report)


def test_validate_reports_collinear_pair_with_indices():
    e1 = computational(2, 0)
    e2 = computational(2, 1)
    e = RhoEnsemble(kets=[e1, e2, e1], weights=[1 / 3, 1 / 3, 1 / 3])
    report = validate_ensemble(e)
    assert any("(0, 2)" in line and "collinear" in line for line in report)

    several = RhoEnsemble(kets=[e1, e2, e1, 1j * e2, -e1], weights=[0.2] * 5)
    assert validate_ensemble(several) == [
        f"elements ({i}, {j}) are collinear (|overlap| = 1.0)"
        for i, j in [(0, 2), (0, 4), (1, 3), (2, 4)]
    ]
    phases = RhoEnsemble(
        kets=[p * e1 for p in (1, -1, 1j, -1j, np.exp(0.3j))], weights=[0.2] * 5
    )
    every_pair = validate_ensemble(phases)
    assert [line.split(")")[0] for line in every_pair] == [
        f"elements ({i}, {j}" for i in range(5) for j in range(i + 1, 5)
    ]
    with pytest.raises(TypeError):
        validate_ensemble(several, 1e-10, 1e-10, 1e-8)
    with pytest.raises(TypeError):
        validate_ensemble(several, collinearity_tol=1e-8)


def test_collinear_exactly_when_the_pair_density_has_rank_one_at_the_cutoff():
    # Two unit kets at angle theta with weights from below rank_tol to about
    # 1/2, checked against the smaller eigenvalue of their pair density (that
    # of the 2x2 matrix sqrt(p_i p_j) <phi_i|phi_j>, which shares its spectrum).
    rng = np.random.default_rng(61)
    flagged = clean = 0
    for _ in range(600):
        dim = int(rng.integers(2, 5))
        weights = 10.0 ** rng.uniform(-10.3, -0.3, size=2)
        first = random_ket(rng, dim)
        other = random_ket(rng, dim)
        other -= np.vdot(first, other) * first
        sin = 10.0 ** rng.uniform(-8.0, 0.0)
        second = np.sqrt(1.0 - sin**2) * first + sin * other / np.linalg.norm(other)
        kets = np.stack([first, second])
        amplitudes = np.sqrt(weights)
        pair = amplitudes[:, None] * (np.conj(kets) @ kets.T) * amplitudes
        smallest = np.linalg.eigvalsh(pair)[0]
        if abs(smallest / 1e-10 - 1.0) < 1e-4:  # rounding decides at the boundary
            continue
        e = RhoEnsemble(kets=kets, weights=weights)
        collinear = any("collinear" in line for line in validate_ensemble(e))
        assert collinear == (smallest <= 1e-10), (weights, sin, smallest)
        flagged, clean = flagged + collinear, clean + (not collinear)
    assert flagged > 100 and clean > 100


def test_validate_reports_non_unit_norm():
    e = RhoEnsemble(
        kets=[computational(2, 0) * 0.9, computational(2, 1)], weights=[0.5, 0.5]
    )
    report = validate_ensemble(e)
    assert any("norm" in line and "element 0" in line for line in report)


def test_validate_fuzzed_single_violations_always_reported():
    rng = np.random.default_rng(33)
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        order = int(rng.integers(2, dim + 2))
        e = random_ensemble(rng, dim, order)
        kind = int(rng.integers(0, 3))
        if kind == 0:  # break the weight sum
            weights = e.weights.copy()
            weights[0] += 0.25
            broken = RhoEnsemble(kets=e.kets, weights=weights)
        elif kind == 1:  # denormalize one ket
            kets = e.kets.copy()
            kets[0] = kets[0] * 1.01
            broken = RhoEnsemble(kets=kets, weights=e.weights)
        else:  # duplicate one ket onto another
            kets = e.kets.copy()
            kets[-1] = kets[0]
            broken = RhoEnsemble(kets=kets, weights=e.weights)
        assert validate_ensemble(broken) != []


_COLLINEAR = re.compile(
    r"elements \((\d+), (\d+)\) are collinear "
    r"\(\|overlap\| = ([^()]*)\)"
)


def rank_one_bound(weight, rank_tol=1e-10):
    """``r`` with ``|<phi_i|phi_j>| >= r_i r_j`` exactly when the pair density of
    two unit kets has its smaller eigenvalue at or below ``rank_tol``."""
    return math.sqrt(1.0 - rank_tol / max(weight, rank_tol))


def pair_loop_report(e, tol=1e-10):
    """Reference: validation element by element and pair by pair."""
    report = []
    weight_sum = float(np.sum(e.weights))
    if abs(weight_sum - 1.0) > max(tol, tol * e.order):
        report.append(f"weights sum to {weight_sum!r}, expected 1")
    for j, norm in enumerate(np.linalg.norm(e.kets, axis=1)):
        if abs(float(norm) - 1.0) > tol:
            report.append(f"element {j} has norm {float(norm)!r}, expected 1")
    for i in range(e.order):
        for j in range(i + 1, e.order):
            overlap = abs(np.vdot(e.kets[i], e.kets[j]))
            if overlap >= rank_one_bound(e.weights[i]) * rank_one_bound(e.weights[j]):
                report.append(
                    f"elements ({i}, {j}) are collinear (|overlap| = {float(overlap)!r})"
                )
    return report


def split_collinear(report):
    """Report lines other than collinear pairs, and the pairs as (i, j, overlap)."""
    plain, pairs = [], []
    for line in report:
        match = _COLLINEAR.fullmatch(line)
        if match:
            pairs.append((int(match[1]), int(match[2]), float(match[3])))
        else:
            plain.append(line)
    return plain, pairs


def oracle_case(seed, dim, order, duplicates, layout, smallest_weight, norm_error, flaw):
    """The kets and weights of a random ensemble with the requested flaws, in
    the requested layout."""
    rng = np.random.default_rng(seed)
    kets = np.stack([random_ket(rng, dim) for _ in range(order)])
    for src, dst, phased in duplicates:
        phase = np.exp(2j * np.pi * rng.random()) if phased else 1.0
        kets[dst % order] = phase * kets[src % order]
    weights = rng.random(order) + 0.1
    if smallest_weight is not None and order > 1:
        k = rng.integers(order)
        weights[k] = 0.0
        weights *= (1.0 - smallest_weight) / weights.sum()
        weights[k] = smallest_weight
    weights /= weights.sum()
    if flaw == "weight_sum":
        weights *= 1.1
    kets[rng.integers(order)] *= 1.0 + norm_error
    if flaw == "negative_weight":
        weights[rng.integers(order)] *= -1.0
    elif flaw == "zero_weight" and order > 1:  # moved to a neighbour: the sum holds
        k = rng.integers(order)
        weights[(k + 1) % order] += weights[k]
        weights[k] = 0.0
    if layout == "F":
        kets = np.asfortranarray(kets)
    elif layout == "strided":
        padded = np.zeros((2 * order, 3 * dim), dtype=complex)
        padded[::2, ::3] = kets
        kets = padded[::2, ::3]
    return kets, weights


def assert_matches_oracle(e):
    plain, pairs = split_collinear(validate_ensemble(e))
    expected_plain, expected_pairs = split_collinear(pair_loop_report(e))
    assert plain == expected_plain
    assert [p[:2] for p in pairs] == [p[:2] for p in expected_pairs]
    # vdot and the Gram matrix sum in different orders.
    overlap_tol = 8 * e.dim * np.finfo(float).eps
    for (_, _, got), (_, _, want) in zip(pairs, expected_pairs):
        assert abs(got - want) <= overlap_tol


def checked_like_the_pair_loop(kets, weights):
    """The ensemble of ``kets`` and ``weights`` once it validates as the pair loop
    reports, or None once the constructor has refused its first non-positive
    weight by name: the sign of a weight is judged there alone."""
    nonpositive = np.flatnonzero(weights <= 0.0)
    if nonpositive.size:
        k = nonpositive[0]
        message = f"element {k} has non-positive weight {float(weights[k])!r}"
        with pytest.raises(InvalidEnsemble, match=f"^{re.escape(message)}$"):
            RhoEnsemble(kets=kets, weights=weights)
        return None
    e = RhoEnsemble(kets=kets, weights=weights)
    assert_matches_oracle(e)
    return e


LAYOUTS = ["C", "F", "strided"]
SMALLEST_WEIGHTS = [None, 1e-4, 1e-7, 1e-10]
NORM_ERRORS = [0.0, 1e-2, 5e-10, 5e-11]
FLAWS = [None, "weight_sum", "negative_weight", "zero_weight"]
ORACLE_CASES = 300


def draw(case):
    """Oracle case ``case``: the arguments of ``oracle_case``, up to four
    duplicated kets among them, from one generator seeded by ``case``."""
    rng = np.random.default_rng(case)
    seed, dim, order = int(rng.integers(2**32)), int(rng.integers(1, 9)), int(rng.integers(1, 11))
    duplicates = [
        (*rng.integers(10, size=2).tolist(), bool(rng.integers(2)))
        for _ in range(int(rng.integers(5)))
    ]
    return (seed, dim, order, duplicates, pick(rng, LAYOUTS), pick(rng, SMALLEST_WEIGHTS),
            pick(rng, NORM_ERRORS), pick(rng, FLAWS))


@pytest.mark.parametrize("case", range(ORACLE_CASES))
def test_validate_matches_pair_loop_oracle(case):
    checked_like_the_pair_loop(*oracle_case(*draw(case)))


def test_oracle_cases_reach_every_category():
    cases = [draw(n) for n in range(ORACLE_CASES)]
    for index, values in [(4, LAYOUTS), (5, SMALLEST_WEIGHTS), (6, NORM_ERRORS), (7, FLAWS)]:
        assert {case[index] for case in cases} == set(values)
    assert {bool(duplicates) for _, _, _, duplicates, *_ in cases} == {True, False}
    assert {dim for _, dim, *_ in cases} == set(range(1, 9))
    assert {order for _, _, order, *_ in cases} == set(range(1, 11))


_REPORT_KINDS = {
    "weights sum": "weight_sum",
    "has norm": "norm",
    "collinear": "collinear",
}


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize(
    "fired, duplicates, norm_error, flaw",
    [
        (set(), [], 0.0, None),
        ({"weight_sum"}, [], 0.0, "weight_sum"),
        (None, [], 0.0, "zero_weight"),  # None: the constructor refuses the weight
        ({"norm"}, [], 1e-2, None),
        ({"collinear"}, [(0, 2, True), (1, 3, False)], 0.0, None),
        ({"weight_sum", "norm", "collinear"}, [(0, 2, True), (1, 3, False)], 1e-2, "weight_sum"),
    ],
    ids=["none", "weight_sum", "nonpositive", "norm", "collinear", "all_three"],
)
def test_validate_matches_oracle_when_none_one_or_all_checks_fire(
    fired, duplicates, norm_error, flaw, layout
):
    kets, weights = oracle_case(7, 3, 5, duplicates, layout, None, norm_error, flaw)
    e = checked_like_the_pair_loop(kets, weights)
    if fired is None:
        assert e is None
        return
    kinds = {
        kind
        for line in pair_loop_report(e)
        for text, kind in _REPORT_KINDS.items()
        if text in line
    }
    assert kinds == fired


# ---------------------------------------------------------------------------
# is_linearly_independent


def test_independent_canonical_pair():
    assert is_linearly_independent(equal_mixture_computational())


def test_dependent_three_vectors_in_dim_two():
    e = RhoEnsemble(
        kets=[computational(2, 0), computational(2, 1), plus_ket()],
        weights=[1 / 3, 1 / 3, 1 / 3],
    )
    assert not is_linearly_independent(e)


def test_independent_random_matches_rank_oracle():
    rng = np.random.default_rng(17)
    kets = np.stack([random_ket(rng, 4) for _ in range(3)])
    e = RhoEnsemble(kets=kets, weights=[0.2, 0.3, 0.5])
    assert is_linearly_independent(e)
    assert np.linalg.matrix_rank(kets, tol=1e-10) == 3


def test_independence_collinearity_and_support_rank_cut_on_one_scale():
    # The kets' smallest squared singular value (5e-13) and the pair density's
    # smaller eigenvalue (2.5e-13) lie below rank_tol; the smallest singular
    # value (7.1e-7) lies above it, and cutting that called the kets independent.
    e = RhoEnsemble(kets=[[1, 0], [math.sqrt(1 - 1e-12), 1e-6]], weights=[0.5, 0.5])
    assert not is_linearly_independent(e)
    report = validate_ensemble(e)
    assert len(report) == 1 and report[0].startswith("elements (0, 1) are collinear")
    assert eigen_ensemble(ensemble_to_density(e)).order == 1


# ---------------------------------------------------------------------------
# ensembles_equal


def test_equal_to_reordered_self():
    e = RhoEnsemble(
        kets=[computational(2, 0), plus_ket()], weights=[0.75, 0.25]
    )
    reordered = RhoEnsemble(
        kets=[plus_ket(), computational(2, 0)], weights=[0.25, 0.75]
    )
    assert ensembles_equal(e, reordered)


def test_equal_up_to_phase():
    e = equal_mixture_plus_minus()
    phased = RhoEnsemble(
        kets=[plus_ket() * np.exp(1j * np.pi / 3), minus_ket()], weights=[0.5, 0.5]
    )
    assert ensembles_equal(e, phased)


def test_same_density_different_ensembles_not_equal():
    assert not ensembles_equal(
        equal_mixture_computational(), equal_mixture_plus_minus()
    )
    assert densities_match(
        equal_mixture_computational(), equal_mixture_plus_minus()
    )


def test_equal_reflexive_symmetric_random():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = random_ensemble(rng, 3, 3)
        b = random_ensemble(rng, 3, 3)
        assert ensembles_equal(a, a)
        assert ensembles_equal(a, b) == ensembles_equal(b, a)


def test_equal_finds_a_matching_a_greedy_pass_misses():
    # Fidelity |cos(s - t)| between r(s) and r(t) is at least 1 - 1e-8 for
    # |s - t| <= 1.4e-4. a0 is nearest b0, but a1 matches only b0, so the one
    # matching within tol 1e-8 pairs a0 with b1 and a1 with b0.
    def r(t):
        return [np.cos(t), np.sin(t)]

    a = RhoEnsemble(kets=[r(4e-5), r(-1e-4)], weights=[0.5, 0.5])
    b = RhoEnsemble(kets=[r(0.0), r(1e-4)], weights=[0.5, 0.5])
    assert ensembles_equal(a, b, tol=1e-8) and ensembles_equal(b, a, tol=1e-8)
    c = RhoEnsemble(kets=[r(0.0), r(3e-4)], weights=[0.5, 0.5])
    assert not ensembles_equal(a, c, tol=1e-8)


@pytest.mark.parametrize("case", range(SAME_DENSITY_CASES))
def test_densities_match_exactly_when_umap_between_admits_the_pair(case):
    # The lemma's three gates and densities_match judge the states over their
    # traces by one judge, so an admitted weight sum off 1 by up to tol * order
    # moves no verdict; only the gap does, and every refusal is DensitiesDiffer.
    drawn = draw_same_density(case)
    a, b = same_density_pair(*drawn)
    assert validate_ensemble(a) == [] and validate_ensemble(b) == [], drawn
    gap = np.max(np.abs(weighted_projector_sum(a) / a.weights.sum()
                        - weighted_projector_sum(b) / b.weights.sum()))
    assert abs(gap / 1e-10 - 1.0) >= 0.01, (drawn, gap)  # 1% or more from tol
    dim_m = max(a.order, b.order)
    (joint_a, _), (joint_b, _) = purify(a, dim_m), purify(b, dim_m)
    gates = {
        "umap_between": lambda: umap_between(a, b),
        "match_purification": lambda: match_purification(a, joint_b),
        "lemma_unitary": lambda: lemma_unitary(joint_a, joint_b),
    }
    admitted = {}
    for name, gate in gates.items():
        try:
            gate()
            admitted[name] = True
        except DensitiesDiffer as exc:
            assert type(exc) is DensitiesDiffer, (drawn, name)
            admitted[name] = False
    match = densities_match(a, b)
    assert densities_match(b, a) == match == (drawn[-1] < 1), drawn
    assert admitted == dict.fromkeys(gates, match), (drawn, admitted)


def test_same_density_cases_reach_every_category():
    cases = [draw_same_density(n) for n in range(SAME_DENSITY_CASES)]
    assert {dim for _, dim, *_ in cases} == set(SAME_DENSITY_DIMS)
    assert {gap for *_, gap in cases} == set(STATE_GAPS)
    offsets = {(a, b) for *_, a, b, _ in cases}
    assert {a for a, _ in offsets} == {b for _, b in offsets} == set(SUM_OFFSETS)
    # The pair raw projector sums misjudge: one side's sum off 1 by
    # 0.9 * tol * order at order 6 > dim 4, the other's not, at no gap.
    assert any(
        dim == 4 and max(orders) >= 6 and a != b and gap == 0
        for _, dim, _, *orders, a, b, gap in cases
    )


def test_kets_that_are_all_zero_have_no_state_and_match_nothing():
    zero = RhoEnsemble(kets=np.zeros((2, 3)), weights=[0.5, 0.5])
    other = RhoEnsemble(kets=np.eye(3)[:2], weights=[0.5, 0.5])
    assert not densities_match(zero, zero)
    assert not densities_match(zero, other) and not densities_match(other, zero)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_kets_whose_squares_leave_float_range_keep_their_state(scale):
    unit = RhoEnsemble(kets=np.eye(3)[:2], weights=[0.5, 0.5])
    scaled = RhoEnsemble(kets=unit.kets * scale, weights=unit.weights)
    assert densities_match(scaled, scaled)
    assert densities_match(scaled, unit) and densities_match(unit, scaled)


def test_ensembles_of_different_dimensions_neither_equal_nor_match():
    qubit = RhoEnsemble(kets=[computational(2, 0)], weights=[1.0])
    qutrit = RhoEnsemble(kets=[computational(3, 0)], weights=[1.0])
    assert not ensembles_equal(qubit, qutrit)
    assert not densities_match(qubit, qutrit)


def test_equal_rejects_different_orders():
    single = RhoEnsemble(kets=[computational(2, 0)], weights=[1.0])
    assert not ensembles_equal(single, equal_mixture_computational())
