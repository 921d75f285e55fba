"""Checked once at the boundary: derived values hold every class invariant.

Public constructions check their arguments once and build what they return
without re-running the value types' own checks. These tests rebuild each
output through the checked constructors, which must accept it unchanged, and
show that bad tolerances are rejected before any arithmetic runs.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhokit import (
    Ancilla,
    InvalidArgument,
    JointState,
    NotOrthonormal,
    NotOrthonormalBasis,
    RhoEnsemble,
    UMap,
    apply_unitary_umap,
    check_umap,
    complete_orthonormal,
    density_from_matrix,
    eig_hermitian,
    ensemble_containing,
    ensemble_from_basis,
    ensemble_to_density,
    lemma_unitary,
    match_purification,
    measure_ancilla,
    purify,
    sample_outcomes,
    schmidt_decompose,
    steer,
    umap_between,
    validate_ensemble,
)
from helpers import bell_joint, computational, random_ensemble, random_unitary


def assert_same_fields(built, rebuilt, names):
    for name in names:
        expected, actual = getattr(rebuilt, name), getattr(built, name)
        if isinstance(expected, np.ndarray):
            assert actual.dtype == expected.dtype and actual.shape == expected.shape
            np.testing.assert_array_equal(actual, expected)
        else:
            assert actual == expected


def assert_rebuilds(value):
    """The checked constructor accepts ``value``'s fields and stores the same."""
    if isinstance(value, RhoEnsemble):
        rebuilt = RhoEnsemble(kets=value.kets, weights=value.weights)
        assert_same_fields(value, rebuilt, ["kets", "weights"])
    elif isinstance(value, Ancilla):
        rebuilt = Ancilla(dim_m=value.dim_m, kets=value.kets)
        assert_same_fields(value, rebuilt, ["dim_m", "kets"])
    else:
        rebuilt = UMap(
            coeffs=value.coeffs, generator=value.generator, basis=value.basis
        )
        assert_same_fields(value, rebuilt, ["coeffs", "generator", "basis"])
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


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim_s=st.integers(1, 12),
    dim_m=st.integers(1, 12),
    rank_share=st.floats(0.0, 1.0),
    layout=st.sampled_from(["C", "F", "strided"]),
)
def test_outputs_rebuild_through_checked_constructors(
    seed, dim_s, dim_m, rank_share, layout
):
    rng = np.random.default_rng(seed)
    rank = 1 + int(rank_share * (min(dim_s, dim_m) - 1))
    joint, support = joint_of_rank(rng, dim_s, dim_m, rank)
    basis = laid_out(random_unitary(rng, dim_m), layout)

    ensemble, ancilla, _ = ensemble_from_basis(joint, basis)
    assert_rebuilds(ensemble)
    assert_rebuilds(ancilla)

    report = steer(joint, basis, 100, seed)
    np.testing.assert_array_equal(report.expected_weights, ensemble.weights)
    kets, weights = ensemble.kets, ensemble.weights
    projector_sum = kets.T @ (weights[:, None] * np.conj(kets))
    np.testing.assert_array_equal(report.post_density, projector_sum)

    mixture, _ = measure_ancilla(joint, basis)
    weights, system_kets, ancilla_kets = zip(*mixture)
    assert_rebuilds(RhoEnsemble(kets=np.array(system_kets), weights=np.array(weights)))
    assert_rebuilds(Ancilla(dim_m=dim_m, kets=np.array(ancilla_kets)))

    unitary = laid_out(random_unitary(rng, dim_m), layout)
    to_e, umap = apply_unitary_umap(joint, basis, unitary)
    assert_rebuilds(to_e)
    assert_rebuilds(umap)

    target = support @ (rng.normal(size=rank) + 1j * rng.normal(size=rank))
    containing, _ = ensemble_containing(joint, target / np.linalg.norm(target))
    assert_rebuilds(containing)

    # Collinear conditionals (always, when dim_s is 1) are reported, not rejected,
    # by ensemble_from_basis; purify and umap_between take valid ensembles only.
    if not validate_ensemble(ensemble):
        assert_rebuilds(purify(ensemble, dim_m)[1])
        if not validate_ensemble(to_e):
            assert_rebuilds(umap_between(ensemble, to_e))


def skewed_basis(deviation):
    """A basis of dimension 3 whose kets 0 and 1 overlap by ``deviation``."""
    basis = random_unitary(np.random.default_rng(39), 3)
    basis[1] += deviation * basis[0]
    return basis


def test_basis_between_construct_and_given_tol_still_raises():
    joint = JointState(dim_s=3, dim_m=3, vec=np.ones(9, dtype=complex) / 3.0)
    basis = skewed_basis(1e-7)
    with pytest.raises(NotOrthonormal):
        ensemble_from_basis(joint, basis, tol=1e-6)
    with pytest.raises(NotOrthonormal):
        measure_ancilla(joint, basis, tol=1e-6)
    with pytest.raises(NotOrthonormal):
        steer(joint, basis, 10, 0, tol=1e-6)
    with pytest.raises(NotOrthonormalBasis):
        ensemble_from_basis(joint, basis)


def zero_weight_joint():
    """e0 (x) e0: conditioning on the computational basis gives weights 1 and 0."""
    return JointState(dim_s=2, dim_m=2, vec=computational(4, 0))


def tolerance_calls():
    joint = zero_weight_joint()
    basis = np.eye(2, dtype=complex)
    e = random_ensemble(np.random.default_rng(40), 2, 2)
    rho = np.eye(2) / 2
    return {
        "ensemble_from_basis": lambda **t: ensemble_from_basis(joint, basis, **t),
        "measure_ancilla": lambda **t: measure_ancilla(joint, basis, **t),
        "steer": lambda **t: steer(joint, basis, 10, 0, **t),
        "apply_unitary_umap": lambda **t: apply_unitary_umap(joint, basis, basis, **t),
        "ensemble_containing": lambda **t: ensemble_containing(
            joint, computational(2, 0), **t
        ),
        "schmidt_decompose": lambda **t: schmidt_decompose(joint.vec, 2, 2, **t),
        "purify": lambda tol: purify(e, 2, tol),
        "match_purification": lambda tol: match_purification(e, purify(e, 2)[0], tol),
        "umap_between": lambda tol: umap_between(e, e, tol),
        "lemma_unitary": lambda tol: lemma_unitary(bell_joint(), bell_joint(), tol),
        "sample_outcomes": lambda tol: sample_outcomes([1.0], 1, 0, tol),
        "complete_orthonormal": lambda tol: complete_orthonormal([], 2, tol),
        "eig_hermitian": lambda tol: eig_hermitian(rho, tol),
        "density_from_matrix": lambda **t: density_from_matrix(rho, **t),
        "ensemble_to_density": lambda **t: ensemble_to_density(e, **t),
    }


RANK_TOL_TAKERS = {
    "ensemble_from_basis",
    "measure_ancilla",
    "steer",
    "apply_unitary_umap",
    "ensemble_containing",
    "schmidt_decompose",
    "density_from_matrix",
    "ensemble_to_density",
}


@pytest.mark.parametrize("name", sorted(tolerance_calls()))
def test_bad_tolerances_raise_typed_error_without_warning(name):
    call = tolerance_calls()[name]
    call(tol=1e-10)  # the same call is accepted at a valid tolerance
    params = ["tol", "rank_tol"] if name in RANK_TOL_TAKERS else ["tol"]
    for param in params:
        for bad in (np.nan, np.inf, -1.0):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(InvalidArgument, match=f"^{param} must be"):
                    call(**{param: bad})
            assert caught == [], (param, bad)
