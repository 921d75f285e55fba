"""Constructive clauses: purification, basis conditioning, coefficient maps."""

import numpy as np
import pytest

from rhokit import (
    DensitiesDiffer,
    DimensionMismatch,
    InvalidArgument,
    JointState,
    NotInSupport,
    NotUnitary,
    OrderExceedsAncillaDim,
    RhoEnsemble,
    TracesDiffer,
    UMap,
    apply_unitary_umap,
    check_umap,
    complete_orthonormal,
    eig_hermitian,
    ensemble_containing,
    ensemble_from_basis,
    ensemble_to_density,
    ensembles_equal,
    lemma_unitary,
    match_purification,
    purify,
    tensor_ket,
    umap_between,
    validate_ensemble,
)
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


def test_complete_orthonormal_rejects_non_integer_dimension():
    with pytest.raises(InvalidArgument, match=r"^target_dim must be an integer >= 1"):
        complete_orthonormal([], 2.5)


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


def test_from_basis_roundtrips_purification():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 5))
        dim_m = int(rng.integers(2, 5))
        order = int(rng.integers(1, dim_m + 1))
        e = random_ensemble(rng, dim, order)
        joint, ancilla = purify(e, dim_m)
        basis = complete_orthonormal(ancilla.kets, dim_m)
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
    basis = complete_orthonormal(ancilla.kets, 3)
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
    # random bases of different ancilla sizes. Rank-one bases are excluded:
    # conditioning a product joint on a generic basis splits the single
    # element into collinear copies, which is no longer a valid ensemble.
    for seed in range(15):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 4))
        base = random_ensemble(rng, dim, int(rng.integers(2, dim + 1)))
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


def test_containing_covers_random_support_vectors():
    from rhokit import schmidt_decompose

    hits = 0
    for seed in range(25):
        rng = np.random.default_rng(seed)
        dim_s = int(rng.integers(2, 5))
        dim_m = int(rng.integers(2, 5))
        joint = random_joint(rng, dim_s, dim_m)
        form = schmidt_decompose(joint.vec, dim_s, dim_m)
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


# ---------------------------------------------------------------------------
# non-contiguous inputs


def test_fortran_order_and_strided_inputs_are_accepted():
    rng = np.random.default_rng(31)
    coeffs = np.asfortranarray(random_unitary(rng, 3)[:, :2])
    assert check_umap(UMap(coeffs=coeffs)) == []

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
    report = check_umap(UMap(coeffs=big, generator=generator, basis=big))
    assert report == [
        "coefficient columns deviate from orthonormality by inf",
        "generator deviates from unitarity by inf",
        "row basis deviates from orthonormality by inf",
    ]
