"""Ensemble data model: density construction, validation, equality."""

import dataclasses
import math
import re

import numpy as np
import pytest

from rhokit import (
    DimensionMismatch,
    InvalidArgument,
    InvalidEnsemble,
    RhoEnsemble,
    densities_match,
    density_from_matrix,
    eigen_ensemble,
    ensemble_to_density,
    ensembles_equal,
    is_linearly_independent,
    validate_ensemble,
)
from rhokit.ensembles import _unmet_hypotheses
from helpers import (
    computational,
    minus_ket,
    pick,
    plus_ket,
    random_ensemble,
    random_ket,
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
        assert rho.support_rank <= rho.dim


def test_each_ket_lies_in_support():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        e = random_ensemble(rng, 3, int(rng.integers(1, 5)))
        rho = ensemble_to_density(e)
        support = rho.eigenkets[: rho.support_rank]
        projector = support.T @ np.conj(support)
        for ket, _ in e.elements():
            assert np.linalg.norm(projector @ ket - ket) < 1e-8


def test_density_with_zero_rank_tol_accepts_order_below_dim():
    # Round-off leaves the exactly-zero eigenvalues of this rank-2 sum
    # slightly positive; that must not read as a support larger than the order.
    e = random_ensemble(np.random.default_rng(0), 4, 2)
    rho = ensemble_to_density(e, rank_tol=0.0)
    assert np.max(np.abs(rho.matrix - weighted_projector_sum(e))) < 1e-12


def test_density_of_an_ensemble_admitted_at_tol_zero():
    # The projector sum of these kets misses Hermitian symmetry by 1.4e-17 in
    # rounding; an ensemble admitted at tol 0 still has its density at tol 0.
    rng = np.random.default_rng(0)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    e = RhoEnsemble(z / np.linalg.norm(z, axis=1)[:, None], [0.5, 0.25, 0.25])
    assert _unmet_hypotheses(e, 0.0) == []
    rho = ensemble_to_density(e, tol=0.0)
    assert np.array_equal(rho.matrix, rho.matrix.conj().T)
    assert np.array_equal(rho.spectrum, ensemble_to_density(e).spectrum)


def test_density_rejects_invalid_ensemble():
    bad = RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[0.6, 0.6])
    with pytest.raises(InvalidEnsemble):
        ensemble_to_density(bad)


def test_density_from_matrix_roundtrip():
    rho = ensemble_to_density(equal_mixture_computational())
    again = density_from_matrix(rho.matrix)
    np.testing.assert_allclose(again.spectrum, rho.spectrum, atol=1e-12)
    assert again.support_rank == rho.support_rank


def test_density_from_matrix_rejects_bad_trace():
    with pytest.raises(ValueError):
        density_from_matrix(np.eye(2, dtype=complex))


def test_bad_values_raise_typed_invalid_argument():
    with pytest.raises(InvalidArgument):
        density_from_matrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(InvalidArgument):
        RhoEnsemble(kets=[[1.0, np.nan]], weights=[1.0])
    with pytest.raises(InvalidArgument):
        RhoEnsemble(kets=[[1.0, 0.0]], weights=[np.inf])


def test_messages_render_plain_floats():
    with pytest.raises(InvalidEnsemble) as weight_error:
        RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[1.5, -0.5])
    assert str(weight_error.value) == "element 1 has non-positive weight -0.5"
    with pytest.raises(InvalidArgument) as eigenvalue_error:
        density_from_matrix(np.diag([1.5, -0.5]).astype(complex))
    assert str(eigenvalue_error.value).startswith("matrix has negative eigenvalue -0.5 ")
    e = RhoEnsemble(kets=[computational(2, 0)] * 2, weights=[0.5, 0.5])
    object.__setattr__(e, "weights", np.array([1.5, -0.5]))
    assert validate_ensemble(e) == [
        "element 1 has non-positive weight -0.5",
        "elements (0, 1) are collinear (|overlap| = 1.0)",
    ]


@pytest.mark.parametrize(
    "build",
    [
        lambda rank_tol: density_from_matrix(np.eye(2, dtype=complex) / 2, rank_tol=rank_tol),
        lambda rank_tol: ensemble_to_density(equal_mixture_computational(), rank_tol=rank_tol),
    ],
    ids=["density_from_matrix", "ensemble_to_density"],
)
def test_rank_tol_at_or_above_every_eigenvalue_is_an_invalid_argument(build):
    # I/2 keeps its two eigenvalues of 1/2 below the cutoff and none from it up,
    # so no density reaches eigen_ensemble with a support rank of 0.
    assert eigen_ensemble(build(0.49)).order == 2
    for rank_tol in (0.5, 0.75):
        message = f"^rank_tol {rank_tol:.3e} is not below the largest eigenvalue 5.000e-01$"
        with pytest.raises(InvalidArgument, match=message):
            build(rank_tol)


def test_eigen_ensemble_decomposes_density():
    rng = np.random.default_rng(21)
    rho = ensemble_to_density(random_ensemble(rng, 3, 4))
    spectral = eigen_ensemble(rho)
    assert spectral.order == rho.support_rank
    assert np.max(np.abs(weighted_projector_sum(spectral) - rho.matrix)) < 1e-10


SUPPORT_RANK = r"support_rank must be an integer in \[1, 2\], got "


@pytest.mark.parametrize(
    "field, value, error, message",
    [
        ("support_rank", "x", InvalidArgument, SUPPORT_RANK + "'x'$"),
        ("support_rank", 1.5, InvalidArgument, SUPPORT_RANK + "1.5$"),
        ("support_rank", -1, InvalidArgument, SUPPORT_RANK + "-1$"),
        ("support_rank", 0, InvalidArgument, SUPPORT_RANK + "0$"),
        ("support_rank", True, InvalidArgument, SUPPORT_RANK + "True$"),
        ("support_rank", 3, InvalidArgument, SUPPORT_RANK + "3$"),
        ("spectrum", None, DimensionMismatch, r"expected a 1-D spectrum, got shape \(\)$"),
        ("spectrum", [np.nan, 0.5], InvalidArgument, "spectrum contains non-finite entries$"),
        ("eigenkets", None, DimensionMismatch, r"expected a 2-D ket list, got shape \(\)$"),
    ],
    ids=[
        "rank_text", "rank_fraction", "rank_negative", "rank_zero", "rank_bool",
        "rank_past_spectrum", "spectrum_none", "spectrum_nan", "eigenkets_none",
    ],
)
def test_eigen_ensemble_admits_the_fields_of_the_record_it_reads(field, value, error, message):
    # DensityMatrix is a plain record: a field replaced by hand reaches
    # eigen_ensemble unchecked unless eigen_ensemble reads it through a gate.
    rho = dataclasses.replace(density_from_matrix(np.eye(2) / 2), **{field: value})
    with pytest.raises(error, match=f"^{message}"):
        eigen_ensemble(rho)


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
    two unit kets has its smaller eigenvalue at or below ``rank_tol``; 1 for a
    non-positive weight, whose pairs are flagged only as near-duplicates."""
    if weight <= 0.0:
        return 1.0
    return math.sqrt(1.0 - rank_tol / max(weight, rank_tol))


def pair_loop_report(e, tol=1e-10):
    """Reference: validation element by element and pair by pair."""
    report = []
    weight_sum = float(np.sum(e.weights))
    if abs(weight_sum - 1.0) > max(tol, tol * e.order):
        report.append(f"weights sum to {weight_sum!r}, expected 1")
    for j, w in enumerate(e.weights):
        if w <= 0.0:
            report.append(f"element {j} has non-positive weight {float(w)!r}")
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
    """A random ensemble with the requested flaws, in the requested layout."""
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
    if layout == "F":
        kets = np.asfortranarray(kets)
    elif layout == "strided":
        padded = np.zeros((2 * order, 3 * dim), dtype=complex)
        padded[::2, ::3] = kets
        kets = padded[::2, ::3]
    e = RhoEnsemble(kets=kets, weights=weights)
    # Construction rejects non-positive weights; reach the check directly.
    if flaw == "negative_weight":
        negated = e.weights.copy()
        negated[rng.integers(order)] *= -1.0
        object.__setattr__(e, "weights", negated)
    elif flaw == "zero_weight" and order > 1:  # moved to a neighbour: the sum holds
        zeroed = e.weights.copy()
        k = rng.integers(order)
        zeroed[(k + 1) % order] += zeroed[k]
        zeroed[k] = 0.0
        object.__setattr__(e, "weights", zeroed)
    return e


def assert_matches_oracle(e):
    plain, pairs = split_collinear(validate_ensemble(e))
    expected_plain, expected_pairs = split_collinear(pair_loop_report(e))
    assert plain == expected_plain
    assert [p[:2] for p in pairs] == [p[:2] for p in expected_pairs]
    # vdot and the Gram matrix sum in different orders.
    overlap_tol = 8 * e.dim * np.finfo(float).eps
    for (_, _, got), (_, _, want) in zip(pairs, expected_pairs):
        assert abs(got - want) <= overlap_tol


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
    assert_matches_oracle(oracle_case(*draw(case)))


def test_oracle_cases_reach_every_category():
    cases = [draw(n) for n in range(ORACLE_CASES)]
    for index, values in [(4, LAYOUTS), (5, SMALLEST_WEIGHTS), (6, NORM_ERRORS), (7, FLAWS)]:
        assert {case[index] for case in cases} == set(values)
    assert {bool(duplicates) for _, _, _, duplicates, *_ in cases} == {True, False}
    assert {dim for _, dim, *_ in cases} == set(range(1, 9))
    assert {order for _, _, order, *_ in cases} == set(range(1, 11))


_REPORT_KINDS = {
    "weights sum": "weight_sum",
    "non-positive weight": "nonpositive",
    "has norm": "norm",
    "collinear": "collinear",
}


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize(
    "fired, duplicates, norm_error, flaw",
    [
        (set(), [], 0.0, None),
        ({"weight_sum"}, [], 0.0, "weight_sum"),
        ({"nonpositive"}, [], 0.0, "zero_weight"),
        ({"norm"}, [], 1e-2, None),
        ({"collinear"}, [(0, 2, True), (1, 3, False)], 0.0, None),
        (
            {"weight_sum", "nonpositive", "norm", "collinear"},
            [(0, 2, True), (1, 3, False)],
            1e-2,
            "negative_weight",
        ),
    ],
    ids=["none", "weight_sum", "nonpositive", "norm", "collinear", "all_four"],
)
def test_validate_matches_oracle_when_none_one_or_all_checks_fire(
    fired, duplicates, norm_error, flaw, layout
):
    e = oracle_case(7, 3, 5, duplicates, layout, None, norm_error, flaw)
    kinds = {
        kind
        for line in pair_loop_report(e)
        for text, kind in _REPORT_KINDS.items()
        if text in line
    }
    assert kinds == fired
    assert_matches_oracle(e)


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
    assert ensemble_to_density(e).support_rank == 1


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
    # matching within tol pairs a0 with b1 and a1 with b0.
    def r(t):
        return [np.cos(t), np.sin(t)]

    a = RhoEnsemble(kets=[r(4e-5), r(-1e-4)], weights=[0.5, 0.5])
    b = RhoEnsemble(kets=[r(0.0), r(1e-4)], weights=[0.5, 0.5])
    assert ensembles_equal(a, b) and ensembles_equal(b, a)
    c = RhoEnsemble(kets=[r(0.0), r(3e-4)], weights=[0.5, 0.5])
    assert not ensembles_equal(a, c)


def test_equal_rejects_different_orders():
    single = RhoEnsemble(kets=[computational(2, 0)], weights=[1.0])
    assert not ensembles_equal(single, equal_mixture_computational())
