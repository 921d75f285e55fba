"""Constructive clauses: purification, basis conditioning, coefficient maps."""

import numpy as np
import pytest

from rhokit import (
    Ancilla,
    DensitiesDiffer,
    DimensionMismatch,
    InvalidArgument,
    InvalidEnsemble,
    JointState,
    NotInSupport,
    NotNormalized,
    NotOrthonormalBasis,
    NotUnitary,
    OrderExceedsAncillaDim,
    ResourceExhausted,
    RhoEnsemble,
    TracesDiffer,
    UMap,
    apply_unitary_umap,
    check_umap,
    complete_orthonormal,
    eig_hermitian,
    eigen_ensemble,
    ensemble_containing,
    ensemble_from_basis,
    ensemble_to_density,
    ensembles_equal,
    lemma_unitary,
    match_purification,
    measure_ancilla,
    purify,
    steer,
    tensor_ket,
    umap_between,
    validate_ensemble,
)
from rhokit import ensembles, purification
from helpers import (
    bell_joint,
    computational,
    mapping_residual,
    minus_ket,
    plus_ket,
    random_basis,
    random_ensemble,
    random_hermitian,
    random_joint,
    random_ket,
    random_unitary,
    reconstruct_joint,
    squeezed_ensemble,
    weighted_projector_sum,
)


def apply_on_ancilla(u, joint):
    return JointState(
        dim_s=joint.dim_s,
        dim_m=joint.dim_m,
        vec=np.kron(np.eye(joint.dim_s), u) @ joint.vec,
    )


# ---------------------------------------------------------------------------
# lemma_unitary


def test_lemma_identity_case():
    joint = bell_joint()
    u = lemma_unitary(joint, joint)
    assert np.linalg.norm(apply_on_ancilla(u, joint).vec - joint.vec) < 1e-9


def test_lemma_recovers_bit_flip():
    phi = bell_joint()
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    chi = apply_on_ancilla(sigma_x, phi)
    u = lemma_unitary(chi, phi)
    assert np.linalg.norm(apply_on_ancilla(u, phi).vec - chi.vec) < 1e-9


def test_lemma_recovers_ancilla_phases():
    phi = bell_joint()
    phases = np.diag(np.exp(1j * np.array([0.3, -1.1])))
    chi = apply_on_ancilla(phases, phi)
    u = lemma_unitary(chi, phi)
    assert np.linalg.norm(apply_on_ancilla(u, phi).vec - chi.vec) < 1e-9


def test_lemma_output_is_unitary():
    rng = np.random.default_rng(12)
    phi = random_joint(rng, 3, 4)
    chi = apply_on_ancilla(random_unitary(rng, 4), phi)
    u = lemma_unitary(chi, phi)
    assert np.max(np.abs(np.conj(u).T @ u - np.eye(4))) < 1e-9


def test_lemma_rejects_different_traces():
    rng = np.random.default_rng(13)
    with pytest.raises(TracesDiffer):
        lemma_unitary(random_joint(rng, 2, 2), random_joint(rng, 2, 2))


# ---------------------------------------------------------------------------
# purify


def test_purify_equal_mixture_gives_bell_like_joint():
    e = RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[0.5, 0.5])
    joint, ancilla = purify(e, 2)
    np.testing.assert_allclose(joint.vec, bell_joint().vec, atol=1e-12)
    np.testing.assert_allclose(ancilla.kets, np.eye(2), atol=1e-12)


def test_purify_singleton_is_product():
    rng = np.random.default_rng(14)
    psi = random_ket(rng, 2)
    joint, _ = purify(RhoEnsemble(kets=[psi], weights=[1.0]), 2)
    np.testing.assert_allclose(joint.vec, tensor_ket(psi, computational(2, 0)), atol=1e-12)


def test_purify_plus_minus_traces_back():
    e = RhoEnsemble(kets=[plus_ket(), minus_ket()], weights=[0.5, 0.5])
    joint, _ = purify(e, 2)
    np.testing.assert_allclose(joint.reduced_system(), np.eye(2) / 2, atol=1e-12)


def test_purify_builds_only_the_member_rows_of_a_large_ancilla():
    # The canonical ancilla is order x dim_m; a square identity here would need
    # 149 GiB, while the joint ket holds 3 MiB.
    dim_m = 10**5
    e = RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[0.5, 0.5])
    joint, ancilla = purify(e, dim_m)
    assert ancilla.kets.shape == (2, dim_m)
    np.testing.assert_array_equal(ancilla.kets, np.eye(2, dim_m))
    np.testing.assert_allclose(joint.reduced_system(), np.eye(2) / 2, atol=1e-15)


def test_purify_reports_a_failed_allocation_as_resource_exhausted(monkeypatch):
    def exhausted(e, dim_m):
        raise MemoryError(f"Unable to allocate the block for dim_m {dim_m}")

    monkeypatch.setattr(purification, "_amplitude_block", exhausted)
    e = RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[0.5, 0.5])
    expected = (
        "^purify needs more memory than is available: "
        "Unable to allocate the block for dim_m 1000000000000$"
    )
    with pytest.raises(ResourceExhausted, match=expected) as info:
        purify(e, 10**12)
    assert isinstance(info.value, MemoryError)


def test_purify_rejects_small_ancilla():
    rng = np.random.default_rng(15)
    with pytest.raises(OrderExceedsAncillaDim):
        purify(random_ensemble(rng, 2, 3), 2)


@pytest.mark.parametrize("dim_m", [2.5, True, 0])
def test_purify_rejects_non_positive_integer_dim_m(dim_m):
    e = RhoEnsemble(kets=[computational(2, 0)], weights=[1.0])
    with pytest.raises(InvalidArgument, match=r"^dim_m must be an integer >= 1"):
        purify(e, dim_m)


@pytest.mark.parametrize("dims", [(2.0, 2), (True, 4), (2, 0)])
def test_joint_state_rejects_non_integer_dimensions(dims):
    with pytest.raises(InvalidArgument, match=r"^dim_[sm] must be an integer >= 1"):
        JointState(dim_s=dims[0], dim_m=dims[1], vec=np.ones(4) / 2)


def test_purify_soundness_random():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 5))
        dim_m = int(rng.integers(2, 5))
        order = int(rng.integers(1, dim_m + 1))
        e = random_ensemble(rng, dim, order)
        joint, ancilla = purify(e, dim_m)
        rho = ensemble_to_density(e)
        assert np.max(np.abs(joint.reduced_system() - rho.matrix)) < 1e-9
        rebuilt = reconstruct_joint(e, ancilla.kets, dim_m)
        assert np.linalg.norm(rebuilt - joint.vec) < 1e-12


# ---------------------------------------------------------------------------
# match_purification


def test_match_roundtrips_canonical_purification():
    rng = np.random.default_rng(16)
    e = random_ensemble(rng, 2, 2)
    joint, ancilla = purify(e, 2)
    found = match_purification(e, joint)
    for ours, canonical in zip(found.kets, ancilla.kets):
        assert abs(np.vdot(ours, canonical)) > 1 - 1e-9


def test_match_bell_against_plus_minus_ensemble():
    e = RhoEnsemble(kets=[plus_ket(), minus_ket()], weights=[0.5, 0.5])
    joint = bell_joint()
    ancilla = match_purification(e, joint)
    # Expanding the joint ket in the system-side +/- kets pairs them with
    # the same kets on the ancilla side.
    for found, expected in zip(ancilla.kets, [plus_ket(), minus_ket()]):
        assert abs(np.vdot(found, expected)) > 1 - 1e-9
    rebuilt = reconstruct_joint(e, ancilla.kets, 2)
    assert np.linalg.norm(rebuilt - joint.vec) < 1e-9


def test_match_ancilla_unique_for_independent_ensembles():
    # Construct the ancilla through two different purifications of the same
    # ensemble; linear independence forces agreement up to element phases.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 5))
        order = int(rng.integers(1, dim + 1))
        e = random_ensemble(rng, dim, order)
        dim_m = order + int(rng.integers(0, 2))
        joint, ancilla = purify(e, dim_m)
        v = random_unitary(rng, dim_m)
        rotated = apply_on_ancilla(v, joint)
        found = match_purification(e, rotated)
        expected = ancilla.kets @ v.T
        for ours, theirs in zip(found.kets, expected):
            assert abs(np.vdot(ours, theirs)) > 1 - 1e-8


def test_match_rejects_wrong_density():
    e = RhoEnsemble(kets=[computational(2, 0)], weights=[1.0])
    with pytest.raises(TracesDiffer):
        match_purification(e, bell_joint())


# ---------------------------------------------------------------------------
# ensemble_from_basis


def test_match_rejects_unequal_dimensions():
    e3 = random_ensemble(np.random.default_rng(36), 3, 2)
    with pytest.raises(DimensionMismatch):
        match_purification(e3, bell_joint())


def test_from_basis_bell_computational():
    e, _, members = ensemble_from_basis(bell_joint(), np.eye(2, dtype=complex))
    assert members == [0, 1]
    np.testing.assert_allclose(e.weights, [0.5, 0.5], atol=1e-12)
    assert abs(np.vdot(e.kets[0], computational(2, 0))) > 1 - 1e-12
    assert abs(np.vdot(e.kets[1], computational(2, 1))) > 1 - 1e-12


def test_from_basis_bell_plus_minus():
    e, _, _ = ensemble_from_basis(bell_joint(), [plus_ket(), minus_ket()])
    np.testing.assert_allclose(e.weights, [0.5, 0.5], atol=1e-12)
    assert abs(np.vdot(e.kets[0], plus_ket())) > 1 - 1e-12
    assert abs(np.vdot(e.kets[1], minus_ket())) > 1 - 1e-12


def test_from_basis_product_joint_single_member():
    rng = np.random.default_rng(18)
    psi = random_ket(rng, 2)
    m = computational(2, 0)
    joint = JointState(dim_s=2, dim_m=2, vec=tensor_ket(psi, m))
    e, ancilla, members = ensemble_from_basis(joint, np.eye(2, dtype=complex))
    assert members == [0]
    assert e.order == 1
    assert e.weights[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(e.kets[0], psi)) > 1 - 1e-12
    np.testing.assert_array_equal(ancilla.kets[0], m)


def fancy_indexed_conditioning(joint, basis, rank_tol=1e-10):
    """Reference: every conditional of the normalized joint, then the members
    picked by index arrays, their weights over their total."""
    kets = np.asarray(basis, dtype=complex)
    conditionals = joint.as_matrix() @ np.conj(kets).T
    conditionals *= np.vdot(joint.vec, joint.vec).real ** -0.5
    weights = np.sum(np.abs(conditionals) ** 2, axis=0)
    members = np.flatnonzero(weights > rank_tol)
    member_weights = weights[members]
    member_kets = (conditionals[:, members] / np.sqrt(member_weights)).T
    member_weights = member_weights / member_weights.sum()
    return member_kets, member_weights, kets[members], members.tolist()


@pytest.mark.parametrize("rank_deficient", [False, True])
def test_from_basis_equals_the_fancy_indexed_formula(rank_deficient):
    rng = np.random.default_rng(19)
    dim_s, dim_m = 4, 6
    if rank_deficient:
        # Amplitudes on ancilla kets 0 and 1 only; a basis that mixes those two
        # and permutes the rest leaves four zero weights between the members.
        e = random_ensemble(rng, dim_s, 2)
        joint, _ = purify(e, dim_m)
        basis = np.eye(dim_m, dtype=complex)
        basis[:2, :2] = random_unitary(rng, 2)
        basis = basis[[2, 0, 4, 5, 1, 3]]
    else:
        joint = random_joint(rng, dim_s, dim_m)
        basis = random_basis(rng, dim_m)
    ensemble, ancilla, members = ensemble_from_basis(joint, basis)
    kets, weights, ancilla_kets, expected_members = fancy_indexed_conditioning(
        joint, basis
    )
    assert members == expected_members == ([1, 4] if rank_deficient else list(range(6)))
    assert all(type(index) is int for index in members)
    for got, want in [
        (ensemble.kets, kets),
        (ensemble.weights, weights),
        (ancilla.kets, ancilla_kets),
    ]:
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


def test_from_basis_roundtrips_purification():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 5))
        dim_m = int(rng.integers(2, 5))
        order = int(rng.integers(1, dim_m + 1))
        e = random_ensemble(rng, dim, order)
        joint, ancilla = purify(e, dim_m)
        basis = complete_orthonormal(ancilla)
        out, out_ancilla, members = ensemble_from_basis(joint, basis)
        assert members == list(range(order))
        assert ensembles_equal(out, e)
        rebuilt = reconstruct_joint(out, out_ancilla.kets, dim_m)
        assert np.linalg.norm(rebuilt - joint.vec) < 1e-9


def test_from_basis_deterministic():
    rng = np.random.default_rng(19)
    joint = random_joint(rng, 3, 3)
    basis = random_basis(rng, 3)
    first = ensemble_from_basis(joint, basis)
    second = ensemble_from_basis(joint, basis)
    np.testing.assert_array_equal(first[0].kets, second[0].kets)
    np.testing.assert_array_equal(first[0].weights, second[0].weights)
    assert first[2] == second[2]


def test_from_basis_member_set_is_unique():
    # Dropping any member leaves a reconstruction gap of exactly its weight,
    # so no other sub-collection of the basis can reproduce the joint ket.
    rng = np.random.default_rng(20)
    e = random_ensemble(rng, 3, 2)
    joint, ancilla = purify(e, 3)
    basis = complete_orthonormal(ancilla)
    out, out_ancilla, members = ensemble_from_basis(joint, basis)
    for drop in range(out.order):
        keep = [j for j in range(out.order) if j != drop]
        partial = RhoEnsemble(
            kets=out.kets[keep], weights=out.weights[keep]
        )
        rebuilt = reconstruct_joint(partial, out_ancilla.kets[keep], 3)
        gap = float(np.linalg.norm(rebuilt - joint.vec))
        assert gap**2 > out.weights[drop] - 1e-9


# ---------------------------------------------------------------------------
# umap_between


def test_umap_identity_between_same_labels():
    rng = np.random.default_rng(22)
    e = random_ensemble(rng, 2, 2)
    umap = umap_between(e, e)
    np.testing.assert_allclose(np.abs(umap.coeffs), np.eye(2), atol=1e-9)
    assert check_umap(umap) == []


def test_umap_computational_to_plus_minus_is_hadamard_like():
    comp = RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[0.5, 0.5])
    pm = RhoEnsemble(kets=[plus_ket(), minus_ket()], weights=[0.5, 0.5])
    umap = umap_between(comp, pm)
    assert umap.coeffs.shape == (2, 2)
    np.testing.assert_allclose(np.abs(umap.coeffs), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-9)
    assert mapping_residual(umap, comp, pm) < 1e-9


def test_umap_order_two_to_three_trine():
    comp = RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[0.5, 0.5])
    angles = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
    trine = RhoEnsemble(
        kets=[np.array([np.cos(a), np.sin(a)], dtype=complex) for a in angles],
        weights=[1 / 3] * 3,
    )
    umap = umap_between(comp, trine)
    assert umap.coeffs.shape == (3, 2)
    assert np.max(np.abs(np.conj(umap.coeffs).T @ umap.coeffs - np.eye(2))) < 1e-9
    assert mapping_residual(umap, comp, trine) < 1e-9


def test_umap_rejects_different_densities():
    rng = np.random.default_rng(23)
    with pytest.raises(DensitiesDiffer):
        umap_between(random_ensemble(rng, 2, 2), random_ensemble(rng, 2, 2))


def test_umap_rejects_unequal_dimensions():
    rng = np.random.default_rng(37)
    with pytest.raises(DimensionMismatch):
        umap_between(random_ensemble(rng, 2, 2), random_ensemble(rng, 3, 2))


def test_umap_mapping_relation_random_pairs():
    # Same-density pairs generated by conditioning one purification on
    # random bases of different ancilla sizes.
    for seed in range(15):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 4))
        base = random_ensemble(rng, dim, int(rng.integers(1, dim + 1)))
        dims_m = rng.integers(base.order, base.order + 3, size=2)
        pair = []
        for dim_m in dims_m:
            joint, _ = purify(base, int(dim_m))
            derived, _, _ = ensemble_from_basis(joint, random_basis(rng, int(dim_m)))
            pair.append(derived)
        umap = umap_between(pair[0], pair[1])
        assert np.max(
            np.abs(np.conj(umap.coeffs).T @ umap.coeffs - np.eye(pair[0].order))
        ) < 1e-9
        assert mapping_residual(umap, pair[0], pair[1]) < 1e-8
        assert check_umap(umap) == []


def test_constructions_take_a_repeated_ket_without_the_collinearity_screen(
    monkeypatch,
):
    # The theorem holds for repeated kets: only the weights and the norms are
    # checked, and no order x order Gram matrix is formed.
    def screen(kets):
        raise AssertionError("a construction ran the collinearity screen")

    monkeypatch.setattr(ensembles, "gram_matrix", screen)
    twice = RhoEnsemble(kets=[computational(2, 0)] * 2, weights=[0.5, 0.5])
    single = RhoEnsemble(kets=[computational(2, 0)], weights=[1.0])
    joint, _ = purify(twice, 3)
    np.testing.assert_allclose(joint.reduced_system(), np.diag([1.0, 0.0]), atol=1e-15)
    ancilla = match_purification(twice, joint)
    assert np.abs(reconstruct_joint(twice, ancilla.kets, 3) - joint.vec).max() < 1e-12
    umap = umap_between(twice, single)
    assert mapping_residual(umap, twice, single) < 1e-12
    assert check_umap(umap) == []
    assert eigen_ensemble(ensemble_to_density(twice)).order == 1


def test_umap_unique_for_independent_pairs_up_to_labels_and_phases():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 5))
        base = random_ensemble(rng, dim, int(rng.integers(2, dim + 1)))
        joint, _ = purify(base, base.order)
        other, _, _ = ensemble_from_basis(joint, random_basis(rng, base.order))
        first = umap_between(other, base)
        perm = list(rng.permutation(base.order))
        shuffled = RhoEnsemble(kets=base.kets[perm], weights=base.weights[perm])
        second = umap_between(other, shuffled)
        # Row j of the second map pairs with target element perm[j] of the
        # first; rows must agree up to a single phase each.
        for j in range(base.order):
            row_first = first.coeffs[perm[j]]
            row_second = second.coeffs[j]
            overlap = abs(np.vdot(row_first, row_second))
            norms = np.linalg.norm(row_first) * np.linalg.norm(row_second)
            assert overlap > norms - 1e-8


@pytest.mark.parametrize("dim", [4, 16])
@pytest.mark.parametrize("smallest", [1e-5, 1e-7, 1e-9])
def test_skewed_spectrum_maps_are_clean(dim, smallest):
    rng = np.random.default_rng(50)
    weights = np.geomspace(1.0, smallest, dim)
    weights[:-1] *= (1.0 - smallest) / weights[:-1].sum()
    eigen = RhoEnsemble(kets=random_unitary(rng, dim), weights=weights)
    joint, _ = purify(eigen, dim)
    other, _, _ = ensemble_from_basis(joint, random_basis(rng, dim))

    u = umap_between(eigen, other)
    assert check_umap(u) == []
    assert mapping_residual(u, eigen, other) <= 1e-8

    target = apply_on_ancilla(random_unitary(rng, dim), joint)
    ancilla = match_purification(eigen, target)
    rebuilt = reconstruct_joint(eigen, ancilla.kets, dim)
    assert np.linalg.norm(rebuilt - target.vec) <= 1e-8


# ---------------------------------------------------------------------------
# apply_unitary_umap


def test_apply_identity_matches_from_basis():
    rng = np.random.default_rng(24)
    joint = random_joint(rng, 2, 3)
    basis = random_basis(rng, 3)
    direct, _, _ = ensemble_from_basis(joint, basis)
    to_e, _ = apply_unitary_umap(joint, basis, np.eye(3, dtype=complex))
    np.testing.assert_array_equal(to_e.kets, direct.kets)
    np.testing.assert_array_equal(to_e.weights, direct.weights)


def test_apply_hadamard_on_bell():
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)
    to_e, umap = apply_unitary_umap(bell_joint(), np.eye(2, dtype=complex), hadamard)
    expected = RhoEnsemble(kets=[plus_ket(), minus_ket()], weights=[0.5, 0.5])
    assert ensembles_equal(to_e, expected)
    assert check_umap(umap) == []


def test_apply_random_unitary_preserves_density():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        e = random_ensemble(rng, 2, 2)
        joint, _ = purify(e, 3)
        basis = random_basis(rng, 3)
        to_e, umap = apply_unitary_umap(joint, basis, random_unitary(rng, 3))
        assert validate_ensemble(to_e) == []
        rho = ensemble_to_density(e)
        assert np.max(np.abs(weighted_projector_sum(to_e) - rho.matrix)) < 1e-9
        assert np.max(
            np.abs(np.conj(umap.coeffs).T @ umap.coeffs - np.eye(umap.cols))
        ) < 1e-9


def test_apply_mapping_relation_holds():
    rng = np.random.default_rng(25)
    joint = random_joint(rng, 3, 3)
    basis = random_basis(rng, 3)
    from_e, _, _ = ensemble_from_basis(joint, basis)
    to_e, umap = apply_unitary_umap(joint, basis, random_unitary(rng, 3))
    assert mapping_residual(umap, from_e, to_e) < 1e-8


def test_apply_orders_rows_members_first_when_members_are_not_contiguous():
    # The joint lives on ancilla kets 1 and 3 of 5, and the unitary mixes
    # {1, 3} and {0, 2, 4} separately: source and rotated members are [1, 3].
    rng = np.random.default_rng(27)
    block = np.zeros((2, 5), dtype=complex)
    block[:, [1, 3]] = random_unitary(rng, 2) * np.array([0.8, 0.6])
    joint = JointState(dim_s=2, dim_m=5, vec=block.reshape(-1))
    basis = np.eye(5, dtype=complex)
    unitary = np.zeros((5, 5), dtype=complex)
    unitary[np.ix_([1, 3], [1, 3])] = random_unitary(rng, 2)
    unitary[np.ix_([0, 2, 4], [0, 2, 4])] = random_unitary(rng, 3)
    rotated = basis @ unitary.T
    assert ensemble_from_basis(joint, basis)[2] == [1, 3]
    assert ensemble_from_basis(joint, rotated)[2] == [1, 3]

    _, umap = apply_unitary_umap(joint, basis, unitary)
    rows = rotated[[1, 3, 0, 2, 4]]
    np.testing.assert_array_equal(umap.basis, rows)
    assert umap.cols == 2
    np.testing.assert_array_equal(
        umap.coeffs, (np.conj(rows) @ umap.generator @ rows.T)[:, :2]
    )
    np.testing.assert_allclose(umap.coeffs, np.conj(rows) @ basis[[1, 3]].T, atol=1e-15)
    np.testing.assert_allclose(umap.coeffs[2:], 0.0, atol=1e-15)
    assert check_umap(umap) == []


def test_apply_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        apply_unitary_umap(
            bell_joint(), np.eye(2, dtype=complex), np.ones((2, 2), dtype=complex)
        )


# ---------------------------------------------------------------------------
# ensemble_containing


def test_containing_bell_plus():
    # Overlaps with the left Schmidt kets are (1/sqrt2, 1/sqrt2) and the
    # coefficients equal them, so the first weight is exactly 1/2.
    e, basis = ensemble_containing(bell_joint(), plus_ket())
    assert abs(np.vdot(e.kets[0], plus_ket())) > 1 - 1e-12
    assert e.weights[0] == pytest.approx(0.5, abs=1e-12)
    expected = RhoEnsemble(kets=[plus_ket(), minus_ket()], weights=[0.5, 0.5])
    assert ensembles_equal(e, expected)
    assert basis.shape == (2, 2)


def test_containing_product_joint():
    rng = np.random.default_rng(26)
    psi = random_ket(rng, 2)
    joint = JointState(dim_s=2, dim_m=2, vec=tensor_ket(psi, computational(2, 0)))
    e, _ = ensemble_containing(joint, psi)
    assert e.order == 1
    assert e.weights[0] == pytest.approx(1.0, abs=1e-10)
    assert abs(np.vdot(e.kets[0], psi)) > 1 - 1e-10


def test_containing_minor_eigenket_weight():
    # Coefficients (sqrt(0.9), sqrt(0.1)) and target = minor eigenket give
    # ratios (0, 1/sqrt(0.1)); the normalization sums to 10, so the first
    # weight is exactly 0.1.
    vec = np.sqrt(0.9) * tensor_ket(computational(2, 0), computational(2, 0))
    vec += np.sqrt(0.1) * tensor_ket(computational(2, 1), computational(2, 1))
    joint = JointState(dim_s=2, dim_m=2, vec=vec)
    e, _ = ensemble_containing(joint, computational(2, 1))
    assert abs(np.vdot(e.kets[0], computational(2, 1))) > 1 - 1e-12
    assert e.weights[0] == pytest.approx(0.1, abs=1e-12)
    np.testing.assert_allclose(
        weighted_projector_sum(e), np.diag([0.9, 0.1]).astype(complex), atol=1e-9
    )


def test_containing_rejects_out_of_support_target():
    rng = np.random.default_rng(27)
    psi = random_ket(rng, 2)
    orthogonal = np.array([-np.conj(psi[1]), np.conj(psi[0])])
    joint = JointState(dim_s=2, dim_m=2, vec=tensor_ket(psi, computational(2, 0)))
    with pytest.raises(NotInSupport):
        ensemble_containing(joint, orthogonal)


def test_containing_accepts_every_joint_state_norm():
    # JointState admits a norm within 1e-8 of 1; conditioning accepts this
    # joint, so the support-vector construction must accept it too.
    vec = np.sqrt(0.7) * tensor_ket(computational(2, 0), computational(2, 0))
    vec += np.sqrt(0.3) * tensor_ket(computational(2, 1), computational(2, 1))
    joint = JointState(dim_s=2, dim_m=2, vec=vec * (1 + 5e-9))
    ensemble_from_basis(joint, np.eye(2, dtype=complex))
    e, _ = ensemble_containing(joint, computational(2, 0))
    assert abs(np.vdot(e.kets[0], computational(2, 0))) > 1 - 1e-12
    assert e.weights[0] == pytest.approx(0.7, abs=1e-7)


def _near_unit_outputs():
    """Ensembles built by each construction from a joint of norm 1 + 5e-9."""
    vec = np.sqrt(0.7) * tensor_ket(computational(2, 0), computational(2, 0))
    vec += np.sqrt(0.3) * tensor_ket(computational(2, 1), computational(2, 1))
    joint = JointState(dim_s=2, dim_m=2, vec=vec * (1 + 5e-9))
    basis = np.eye(2, dtype=complex)
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    conditioned, _, _ = ensemble_from_basis(joint, basis)
    report = steer(joint, basis, 100, 0)
    mixture, _ = measure_ancilla(joint, basis)
    return {
        "ensemble_from_basis": conditioned,
        "steer": RhoEnsemble(kets=conditioned.kets, weights=report.expected_weights),
        "measure_ancilla": RhoEnsemble(
            kets=[ket for _, ket, _ in mixture], weights=[w for w, _, _ in mixture]
        ),
        "ensemble_containing": ensemble_containing(joint, computational(2, 0))[0],
        "apply_unitary_umap": apply_unitary_umap(joint, basis, hadamard)[0],
    }


@pytest.mark.parametrize("construction", sorted(_near_unit_outputs()))
def test_near_unit_joint_outputs_pass_validation(construction):
    # The joint's norm is admitted, so the outputs built from it must validate.
    assert validate_ensemble(_near_unit_outputs()[construction]) == []


def _near_unit_joint_and_unit_copy():
    vec = np.sqrt(0.7) * tensor_ket(computational(2, 0), computational(2, 0))
    vec += np.sqrt(0.3) * tensor_ket(computational(2, 1), computational(2, 1))
    return (
        JointState(dim_s=2, dim_m=2, vec=vec * (1 + 5e-9)),
        JointState(dim_s=2, dim_m=2, vec=vec),
    )


def test_near_unit_joint_passes_match_purification():
    # An admitted joint of norm 1 + 5e-9 has a unit-trace reduced state, so
    # it matches the ensemble's density.
    joint, _ = _near_unit_joint_and_unit_copy()
    assert np.trace(joint.reduced_system()).real == pytest.approx(1.0, abs=1e-15)
    e = RhoEnsemble(kets=[computational(2, 0), computational(2, 1)], weights=[0.7, 0.3])
    ancilla = match_purification(e, joint)
    assert np.max(np.abs(reconstruct_joint(e, ancilla.kets, 2) - joint.vec)) < 1e-8


def test_near_unit_joint_passes_lemma_unitary():
    joint, unit = _near_unit_joint_and_unit_copy()
    for chi, phi in ((joint, unit), (unit, joint)):
        u = lemma_unitary(chi, phi)
        assert np.max(np.abs(np.conj(u).T @ u - np.eye(2))) < 1e-12
        assert np.max(np.abs(apply_on_ancilla(u, phi).vec - chi.vec)) < 1e-8


def long_weight_sum_ensemble():
    """Four unit kets in dimension 4 whose weights sum to 1 + 3.9e-10: admitted,
    since the hypotheses hold the sum to 1 only within tol * order = 4e-10."""
    rng = np.random.default_rng(0)
    kets = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    weights = rng.random(4)
    return RhoEnsemble(kets=kets, weights=weights / weights.sum() * (1 + 3.9e-10))


def test_an_admitted_weight_sum_matches_its_own_purification():
    # The raw density differs from the purification's unit-trace state by
    # 1.2e-10 > tol; both sides are compared as unit-trace states.
    e = long_weight_sum_ensemble()
    assert validate_ensemble(e) == []
    joint, _ = purify(e, 4)
    ancilla = match_purification(e, joint)
    assert abs(np.linalg.norm(joint.vec) - 1.0) < 1e-15
    rebuilt = reconstruct_joint(e, ancilla.kets, 4) / np.sqrt(e.weights.sum())
    assert np.max(np.abs(rebuilt - joint.vec)) < 1e-12


def test_an_admitted_weight_sum_maps_onto_its_normalized_copy():
    e = long_weight_sum_ensemble()
    unit = RhoEnsemble(kets=e.kets, weights=e.weights / e.weights.sum())
    for from_e, to_e in ((e, unit), (unit, e)):
        umap = umap_between(from_e, to_e)
        assert check_umap(umap) == []
        np.testing.assert_allclose(umap.coeffs, np.eye(4), atol=1e-9)


def test_containing_covers_random_support_vectors():
    from rhokit import schmidt_decompose

    hits = 0
    for seed in range(25):
        rng = np.random.default_rng(seed)
        dim_s = int(rng.integers(2, 5))
        dim_m = int(rng.integers(2, 5))
        joint = random_joint(rng, dim_s, dim_m)
        form = schmidt_decompose(joint)
        mix = rng.normal(size=form.rank) + 1j * rng.normal(size=form.rank)
        target = form.left_kets.T @ mix
        target = target / np.linalg.norm(target)
        e, _ = ensemble_containing(joint, target)
        assert validate_ensemble(e) == []
        assert abs(np.vdot(e.kets[0], target)) > 1 - 1e-9
        assert np.max(
            np.abs(weighted_projector_sum(e) - joint.reduced_system())
        ) < 1e-9
        hits += 1
    assert hits == 25


@pytest.mark.parametrize(
    "dim_s, dim_m, rank, smallest",
    [(4, 16, 2, 0.1), (6, 48, 4, 0.1), (16, 40, 16, 3e-5)],
)
def test_containing_rank_deficient_joint_is_clean(dim_s, dim_m, rank, smallest):
    # Most ancilla directions lie outside the reduced-state support here; a
    # completion that mixes them in strands several conditional elements on
    # one support direction and makes them collinear. The geometric spectrum
    # down to ``smallest`` (squared: about 7e-10 in the last case) punishes
    # a completion that leaks the largest Schmidt directions into kets meant
    # for the smallest ones.
    coefficients = smallest ** np.linspace(0.0, 1.0, rank)
    coefficients /= np.linalg.norm(coefficients)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        left = random_unitary(rng, dim_s)[:rank]
        right = random_unitary(rng, dim_m)[:rank]
        vec = ((left.T * coefficients) @ right).reshape(-1)
        joint = JointState(dim_s=dim_s, dim_m=dim_m, vec=vec)
        target = left.T @ (rng.normal(size=rank) + 1j * rng.normal(size=rank))
        target /= np.linalg.norm(target)
        e, basis = ensemble_containing(joint, target)
        assert validate_ensemble(e) == []
        assert np.max(np.abs(np.conj(basis) @ basis.T - np.eye(dim_m))) < 1e-12
        assert abs(np.vdot(e.kets[0], target)) > 1 - 1e-9
        gamma = np.conj(left) @ target
        forced = 1.0 / np.sum(np.abs(gamma / coefficients) ** 2)
        assert e.weights[0] == pytest.approx(forced, abs=1e-9)
        assert np.max(
            np.abs(weighted_projector_sum(e) - joint.reduced_system())
        ) < 1e-9
        # A left Schmidt ket as target gives back the Schmidt decomposition.
        e, _ = ensemble_containing(joint, left[seed % rank])
        overlaps = np.abs(np.conj(e.kets) @ e.kets.T - np.eye(e.order))
        assert e.order == rank and np.max(overlaps) < 1e-6


def _schmidt_joint(left, coefficients, right):
    """Joint ket ``sum_s c_s left_s (x) right_s`` from orthonormal ket rows."""
    vec = ((left.T * coefficients) @ right).reshape(-1)
    return JointState(dim_s=left.shape[1], dim_m=right.shape[1], vec=vec)


@pytest.mark.parametrize("epsilon", [1e-7, 1e-8, 1e-9, 2.7e-10, 1.5e-10, 1.01e-10])
def test_containing_is_clean_down_to_the_rank_cutoff(epsilon):
    # A rank-2 joint whose smaller squared Schmidt coefficient is epsilon, and
    # the target sum_s c_s p_s: both elements get weight 1/2 and overlap by
    # about 1 - 2 epsilon. Their pair density is the reduced state, whose
    # smaller eigenvalue epsilon is above rank_tol, so they are not collinear.
    rng = np.random.default_rng(5)
    coefficients = np.sqrt([1.0 - epsilon, epsilon])
    left = random_unitary(rng, 7)[:2]
    joint = _schmidt_joint(left, coefficients, random_unitary(rng, 27)[:2])
    e, _ = ensemble_containing(joint, coefficients @ left)
    np.testing.assert_allclose(e.weights, [0.5, 0.5], rtol=1e-9)
    overlap = abs(np.vdot(e.kets[0], e.kets[1]))
    assert overlap == pytest.approx(1.0 - 2.0 * epsilon, abs=1e-12)
    assert validate_ensemble(e) == []


def test_containing_admits_every_member_of_a_nearly_singular_ensemble():
    # rho's smallest eigenvalue is at or below rank_tol, so its eigenvector is
    # dropped, yet a member of weight p keeps a component of up to
    # sqrt(lambda / p) along it. Its largest weight, at least p, admits it;
    # element 0 is its normalized projection onto the kept support.
    nearly_singular = members = 0
    for seed in range(200):
        e = squeezed_ensemble(seed)
        smallest = np.linalg.eigvalsh(weighted_projector_sum(e))[0]
        if validate_ensemble(e) or smallest > 1e-10:
            continue
        nearly_singular += 1
        joint, _ = purify(e, e.dim)
        for ket, weight in zip(e.kets, e.weights):
            out, _ = ensemble_containing(joint, ket)
            assert validate_ensemble(out) == []
            assert out.weights[0] >= weight * (1 - 1e-9)
            assert np.max(np.abs(out.kets[0] - ket)) <= 1e-4
            # Within sqrt(2 lambda / W), with lambda <= rank_tol and W >= p.
            assert np.linalg.norm(out.kets[0] - ket) <= np.sqrt(2e-10 / weight)
            members += 1
    assert nearly_singular > 190 and members > 800


def test_containing_decides_membership_of_a_wide_joint_by_its_range():
    # dim_s = 4 > dim_m = 2: a target's component outside the two left kets
    # counts at the floor, so a target orthogonal to the range has largest
    # weight near 1e-31. A rule over the nonzero singular values alone would
    # admit it. At rank_tol = 0 rounding leaves it components near 1e-16 on
    # the kept left kets; the floored cutoff still refuses it.
    rng = np.random.default_rng(31)
    left = random_unitary(rng, 4)
    joint = _schmidt_joint(left[:2], np.sqrt([0.7, 0.3]), random_unitary(rng, 2))
    inside = left[:2].T @ np.array([0.6, 0.8j])
    for rank_tol in (1e-10, 0.0):
        e, _ = ensemble_containing(joint, inside, rank_tol=rank_tol)
        assert validate_ensemble(e) == []
        assert np.max(np.abs(e.kets[0] - inside)) < 1e-12
        for target in (left[3], np.sqrt(1.0 - 1e-6) * inside + 1e-3 * left[3]):
            with pytest.raises(NotInSupport, match="^target has largest weight"):
                ensemble_containing(joint, target, rank_tol=rank_tol)


def test_containing_refuses_a_rounding_level_direction_at_rank_tol_0():
    # A rank-2 3x3 joint: the SVD leaves a singular value near 1e-17 on the
    # null direction, which rank_tol = 0 keeps. Its largest weight, about the
    # squared floor, is below the cutoff, which is then the floor itself.
    rng = np.random.default_rng(5)
    left = random_unitary(rng, 3)
    joint = _schmidt_joint(left, np.sqrt([0.5, 0.5, 0.0]), random_unitary(rng, 3))
    assert 0.0 < np.linalg.svd(joint.as_matrix(), compute_uv=False)[2] < 1e-15
    with pytest.raises(NotInSupport, match="^target has largest weight"):
        ensemble_containing(joint, left[2], rank_tol=0.0)


def test_containing_bounds_the_distance_of_element_0_from_the_target():
    # Squared Schmidt coefficients (0.5, 0.5 - lam, lam), lam below rank_tol.
    # A target with share L = 1e-6 along the dropped direction has largest
    # weight W = 1 / (2 (1 - L) + L / lam) ~ 1e-4: admitted, and element 0,
    # its projection e_0, lies within sqrt(2 L) and sqrt(2 lam / W) of it.
    # With 95% along that direction W = 1.04e-10 still exceeds rank_tol, but
    # the share exceeds sqrt(rank_tol): refused, as is the direction itself.
    lam = 0.99e-10
    joint = _schmidt_joint(np.eye(3), np.sqrt([0.5, 0.5 - lam, lam]), np.eye(3))
    share = 1e-6
    xi = np.sqrt([1.0 - share, 0.0, share]).astype(complex)
    e, _ = ensemble_containing(joint, xi)
    assert validate_ensemble(e) == []
    np.testing.assert_allclose(e.kets[0], computational(3, 0), atol=1e-15)
    assert e.weights[0] == pytest.approx(0.5 / (1.0 - lam), rel=1e-12)  # over the kept total
    weight = 1.0 / (2.0 * (1.0 - share) + share / lam)
    distance = np.linalg.norm(e.kets[0] - xi)
    assert distance <= np.sqrt(2.0 * share)
    assert distance <= np.sqrt(2.0 * lam / weight)
    for target in (np.sqrt([0.05, 0.0, 0.95]), computational(3, 2)):
        with pytest.raises(NotInSupport, match="^target has largest weight"):
            ensemble_containing(joint, target.astype(complex))


def _assert_contains(joint, target, left, coefficients):
    """Element 0 is the target, phase included, with its forced weight; the
    ensemble validates and the basis is unitary."""
    e, basis = ensemble_containing(joint, target)
    assert np.max(np.abs(e.kets[0] - target)) < 1e-9
    forced = 1.0 / np.sum(np.abs((np.conj(left) @ target) / coefficients) ** 2)
    assert e.weights[0] == pytest.approx(forced, rel=1e-9)
    assert validate_ensemble(e) == []
    assert np.max(np.abs(np.conj(basis) @ basis.T - np.eye(joint.dim_m))) < 1e-12


@pytest.mark.parametrize(
    "dim_s, dim_m, rank, smallest",
    [
        (3, 5, 1, 1.0),
        (4, 4, 4, 0.2),
        (3, 9, 3, 0.5),
        (5, 3, 3, 0.1),
        (6, 12, 5, 1e-4),
        (16, 40, 16, 3e-5),
    ],
)
def test_containing_pins_target_weight_and_basis(dim_s, dim_m, rank, smallest):
    # Rank 1, rank == dim_m and rank < dim_m, with geometric Schmidt spectra
    # down to ``smallest``. Targets: a random support vector, each left
    # Schmidt ket (the first ancilla ket lies along one axis), and the vector
    # whose Schmidt ratios share one magnitude (a tie for the largest).
    coefficients = smallest ** np.linspace(0.0, 1.0, rank)
    coefficients /= np.linalg.norm(coefficients)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        left = random_unitary(rng, dim_s)[:rank]
        joint = _schmidt_joint(left, coefficients, random_unitary(rng, dim_m)[:rank])
        phases = np.exp(2j * np.pi * rng.random(rank))
        targets = [left.T @ (rng.normal(size=rank) + 1j * rng.normal(size=rank))]
        targets += [phases[s] * left[s] for s in range(rank)]
        targets.append(left.T @ (coefficients * phases))
        for target in targets:
            _assert_contains(joint, target / np.linalg.norm(target), left, coefficients)


def test_containing_exact_ties_and_axis_targets():
    # Canonical Schmidt kets make the ties exact: the Bell state with |+>,
    # and equal coefficients with a target whose coordinates share one
    # magnitude; each canonical ket puts the first ancilla ket on one axis.
    _assert_contains(bell_joint(), plus_ket(), np.eye(2), np.full(2, np.sqrt(0.5)))
    coefficients = np.full(4, 0.5)
    joint = _schmidt_joint(np.eye(4), coefficients, np.eye(4, 6))
    _assert_contains(joint, np.array([1, 1j, -1, -1j]) / 2.0, np.eye(4), coefficients)
    for s in range(4):
        _assert_contains(joint, computational(4, s), np.eye(4), coefficients)


# ---------------------------------------------------------------------------
# Procrustes on the cross block


def _decomposition(rng, base, order):
    """A decomposition of ``base``'s density with ``order`` elements."""
    joint, _ = purify(base, order)
    e, _, _ = ensemble_from_basis(joint, random_basis(rng, order))
    assert e.order == order
    return e


@pytest.mark.parametrize("from_order, to_order", [(3, 3), (2, 5), (5, 2), (3, 7)])
def test_umap_between_orders_that_differ(from_order, to_order):
    # The cross block is from_order x to_order, padded to the larger order.
    rng = np.random.default_rng(10 * from_order + to_order)
    base = random_ensemble(rng, 2, 2)
    from_e = _decomposition(rng, base, from_order)
    to_e = _decomposition(rng, base, to_order)
    u = umap_between(from_e, to_e)
    assert (u.rows, u.cols) == (max(from_order, to_order), from_order)
    assert check_umap(u) == []
    assert mapping_residual(u, from_e, to_e) < 1e-8


@pytest.mark.parametrize("dim, order, dim_m", [(3, 2, 5), (3, 1, 4), (3, 4, 4)])
def test_match_purification_padded_and_square_blocks(dim, order, dim_m):
    # order < dim_m pads the order x dim_m cross block; order == dim_m does not.
    rng = np.random.default_rng(dim * 100 + order * 10 + dim_m)
    e = random_ensemble(rng, dim, order)
    joint = apply_on_ancilla(random_unitary(rng, dim_m), purify(e, dim_m)[0])
    ancilla = match_purification(e, joint)
    assert ancilla.kets.shape == (order, dim_m)
    assert np.max(np.abs(reconstruct_joint(e, ancilla.kets, dim_m) - joint.vec)) < 1e-8


@pytest.mark.parametrize("dim_s, dim_m", [(2, 5), (5, 2), (4, 4)])
def test_lemma_unitary_carries_phi_onto_chi(dim_s, dim_m):
    rng = np.random.default_rng(dim_s * 10 + dim_m)
    phi = random_joint(rng, dim_s, dim_m)
    chi = apply_on_ancilla(random_unitary(rng, dim_m), phi)
    u = lemma_unitary(chi, phi)
    assert np.max(np.abs(np.conj(u).T @ u - np.eye(dim_m))) < 1e-12
    assert np.max(np.abs(apply_on_ancilla(u, phi).vec - chi.vec)) < 1e-8


# ---------------------------------------------------------------------------
# non-contiguous inputs


def test_fortran_order_and_strided_inputs_are_accepted():
    rng = np.random.default_rng(31)
    generator = np.asfortranarray(random_unitary(rng, 3))
    basis = random_unitary(rng, 3)[::-1]
    assert check_umap(UMap(generator, basis, 2)) == []

    padded = np.zeros(8, dtype=complex)
    padded[::2] = bell_joint().vec
    strided = JointState(dim_s=2, dim_m=2, vec=padded[::2])
    np.testing.assert_array_equal(strided.vec, bell_joint().vec)

    m = random_hermitian(rng, 3)
    w, v = eig_hermitian(m.T)
    np.testing.assert_allclose(v.T @ np.diag(w) @ np.conj(v), m.T, atol=1e-12)

    joint = random_joint(rng, 3, 3)
    basis = random_basis(rng, 3)
    fortran = ensemble_from_basis(joint, np.asfortranarray(basis))
    contiguous = ensemble_from_basis(joint, basis)
    np.testing.assert_allclose(fortran[0].kets, contiguous[0].kets, atol=1e-14)
    assert fortran[2] == contiguous[2]


# ---------------------------------------------------------------------------
# overflowing entries


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_check_umap_reports_a_residual_that_overflows_to_nan():
    # (1e308 + 1e308j) * conj(...) computes inf - inf = NaN in the Gram matrix.
    big = np.full((2, 2), 1e308 + 1e308j)
    generator = np.eye(2) * (1e308 + 1e308j)
    report = check_umap(UMap(generator=generator, basis=big, cols=2))
    assert report == [
        "coefficient columns deviate from orthonormality by inf",
        "generator deviates from unitarity by inf",
        "row basis deviates from orthonormality by inf",
    ]


# ---------------------------------------------------------------------------
# preconditions: one typed error per violated shape or count


def trine_ensemble():
    """Three kets at 120 degrees in the real plane, equal weights: rho = I/2."""
    angles = 2 * np.pi * np.arange(3) / 3
    kets = np.stack([np.cos(angles), np.sin(angles)], axis=1).astype(complex)
    return RhoEnsemble(kets=kets, weights=[1 / 3] * 3)


PRECONDITIONS = {
    "joint_length": (
        lambda: JointState(dim_s=2, dim_m=2, vec=np.ones(3) / np.sqrt(3)),
        DimensionMismatch,
        r"joint ket has length 3, expected 2\*2=4",
    ),
    "too_many_ancilla_kets": (
        lambda: Ancilla(dim_m=2, kets=np.ones((3, 2))),
        DimensionMismatch,
        "3 ancilla kets cannot fit in dimension 2",
    ),
    "lemma_factor_mismatch": (
        lambda: lemma_unitary(bell_joint(), JointState(1, 4, computational(4, 0))),
        DimensionMismatch,
        "joint states have different factor dimensions",
    ),
    "match_order_above_dim_m": (
        lambda: match_purification(trine_ensemble(), bell_joint()),
        OrderExceedsAncillaDim,
        "ensemble order 3 exceeds ancilla dimension 2",
    ),
    "basis_ket_count": (
        lambda: ensemble_from_basis(bell_joint(), [computational(2, 0)]),
        NotOrthonormalBasis,
        "basis has 1 kets, expected 2",
    ),
    "rank_tol_above_every_weight": (
        lambda: ensemble_from_basis(bell_joint(), np.eye(2), rank_tol=0.75),
        InvalidArgument,
        "rank_tol 7.500e-01 is not below the largest conditional weight 5.000e-01$",
    ),
    "unitary_shape": (
        lambda: apply_unitary_umap(bell_joint(), np.eye(2), np.eye(3)),
        DimensionMismatch,
        r"unitary has shape \(3, 3\), expected \(2, 2\)",
    ),
    "target_dimension": (
        lambda: ensemble_containing(bell_joint(), computational(3, 0)),
        DimensionMismatch,
        "target has dimension 3, expected 2",
    ),
    "target_outside_support": (
        lambda: ensemble_containing(
            JointState(4, 2, (np.eye(8)[0] + np.eye(8)[3]) / np.sqrt(2.0)),
            computational(4, 3),
        ),
        NotInSupport,
        r"target has largest weight \S+ and share 1\.000e\+00 outside",
    ),
    "rank_tol_above_every_coefficient": (
        lambda: ensemble_containing(bell_joint(), computational(2, 0), rank_tol=0.75),
        InvalidArgument,
        "rank_tol 7.500e-01 is not below the largest squared Schmidt coefficient 5.000e-01$",
    ),
    # UMap refuses every shape error, so check_umap sees only well-shaped maps.
    "umap_more_columns_than_rows": (
        lambda: UMap(generator=np.eye(2), basis=np.eye(2), cols=3),
        InvalidArgument,
        r"cols must be an integer in \[1, 2\], got 3$",
    ),
    "umap_non_square_generator": (
        lambda: UMap(generator=np.ones((2, 3)), basis=np.eye(2), cols=1),
        DimensionMismatch,
        r"generator has shape \(2, 3\), expected \(2, 2\)$",
    ),
    "umap_generator_size": (
        lambda: UMap(generator=np.eye(3), basis=np.eye(2), cols=2),
        DimensionMismatch,
        r"basis has shape \(2, 2\), expected \(3, 3\)$",
    ),
    "umap_row_basis_count": (
        lambda: UMap(generator=np.eye(2), basis=np.eye(2)[:1], cols=2),
        DimensionMismatch,
        r"basis has shape \(1, 2\), expected \(2, 2\)$",
    ),
    "ancilla_without_kets": (
        lambda: Ancilla(dim_m=3, kets=np.zeros((0, 3))),
        DimensionMismatch,
        "an ancilla needs at least one ket$",
    ),
    "target_norm": (
        lambda: ensemble_containing(bell_joint(), computational(2, 0) * (1 + 1e-7)),
        NotNormalized,
        r"target has norm 1.0000001, expected 1 \(tol 1.000e-08\)$",
    ),
}


@pytest.mark.parametrize("case", sorted(PRECONDITIONS))
def test_violated_precondition_raises_its_typed_error(case):
    call, error, message = PRECONDITIONS[case]
    with pytest.raises(error, match=f"^{message}"):
        call()


def heavy(kets):
    """``kets`` at weight 1/2 each: the theorem's hypotheses fail unless there are two."""
    return RhoEnsemble(kets=kets, weights=[0.5] * len(kets))


@pytest.mark.parametrize(
    "call, error, message",
    [
        # The hypotheses come before the order ...
        (lambda: purify(heavy(np.eye(3)), 2), InvalidEnsemble, "weights sum to 1.5, expected 1$"),
        (
            lambda: match_purification(heavy(trine_ensemble().kets), bell_joint()),
            InvalidEnsemble,
            "weights sum to 1.5, expected 1$",
        ),
        # ... and before the allocation of a joint ket numpy cannot hold.
        (
            lambda: purify(heavy(np.eye(2)[:1]), 10**12),
            InvalidEnsemble,
            "weights sum to 0.5, expected 1$",
        ),
        # The dimensions come before the hypotheses.
        (
            lambda: match_purification(heavy(np.eye(3)), bell_joint()),
            DimensionMismatch,
            "ensemble has dimension 3, joint system factor 2$",
        ),
        # The source ensemble is admitted before the target.
        (
            lambda: umap_between(heavy(np.eye(2)[:1]), RhoEnsemble(kets=[[2, 0]], weights=[1])),
            InvalidEnsemble,
            "weights sum to 0.5, expected 1$",
        ),
    ],
    ids=["purify_order", "match_order", "purify_allocation", "match_dimension", "umap_both"],
)
def test_two_faults_raise_the_error_of_the_first_check(call, error, message):
    with pytest.raises(error, match=f"^{message}"):
        call()
