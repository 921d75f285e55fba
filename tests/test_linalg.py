"""Core linear algebra: eigendecomposition, completion, tensor structure."""

import numpy as np
import pytest

from rhokit import (
    Ancilla,
    DensityMatrix,
    DimensionMismatch,
    InvalidArgument,
    JointState,
    NotHermitian,
    NotNormalized,
    NotOrthonormal,
    NumericalFailure,
    ResourceExhausted,
    RhoEnsemble,
    complete_orthonormal,
    eig_hermitian,
    eigen_ensemble,
    ensemble_containing,
    is_linearly_independent,
    lemma_unitary,
    partial_trace_m,
    schmidt_decompose,
    tensor_ket,
)
from rhokit import linalg, purification
from helpers import bell_joint, bits, computational, random_hermitian, random_ket, random_unitary


# ---------------------------------------------------------------------------
# eig_hermitian


def test_eig_identity():
    w, v = eig_hermitian(np.eye(2, dtype=complex))
    np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(np.conj(v) @ v.T, np.eye(2), atol=1e-12)


def test_eig_diagonal_already_sorted():
    w, v = eig_hermitian(np.diag([0.75, 0.25]).astype(complex))
    np.testing.assert_allclose(w, [0.75, 0.25], atol=1e-12)
    assert abs(v[0][0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(v[1][1]) == pytest.approx(1.0, abs=1e-12)


def test_eig_reconstruction_random():
    # Oracle: multiply the returned factors back together.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, 4)
        w, v = eig_hermitian(h)
        rebuilt = np.einsum("s,si,sj->ij", w, v, np.conj(v))
        assert np.max(np.abs(rebuilt - h)) < 1e-9


def test_eig_sorted_descending():
    rng = np.random.default_rng(7)
    w, _ = eig_hermitian(random_hermitian(rng, 6))
    assert np.all(np.diff(w) <= 1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian, match=r"\(tol 1\.000e-08\)$"):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        eig_hermitian(np.zeros((2, 3)))


def test_eig_deterministic():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 5)
    w1, v1 = eig_hermitian(h)
    w2, v2 = eig_hermitian(h)
    np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(v1, v2)


# ---------------------------------------------------------------------------
# the rank cutoff: eigen_ensemble keeps the eigenvalues above rank_tol


def test_rank_full():
    assert eigen_ensemble(DensityMatrix(np.eye(2) / 2), rank_tol=1e-12).order == 2


def test_rank_numerically_zero_tail():
    assert eigen_ensemble(DensityMatrix(np.diag([1.0, 3e-16])), rank_tol=1e-12).order == 1


def test_rank_of_projector_spectrum():
    # Oracle: a rank-one projector built from a random ket.
    rng = np.random.default_rng(11)
    psi = random_ket(rng, 5)
    projector = np.outer(psi, np.conj(psi))
    assert eigen_ensemble(DensityMatrix(projector), rank_tol=1e-12).order == 1


# ---------------------------------------------------------------------------
# complete_orthonormal


def test_complete_from_first_canonical():
    basis = complete_orthonormal(Ancilla(2, [computational(2, 0)]))
    np.testing.assert_allclose(basis, np.eye(2), atol=1e-12)


def test_complete_from_superposition():
    start = (computational(2, 0) + computational(2, 1)) / np.sqrt(2)
    basis = complete_orthonormal(Ancilla(2, [start]))
    np.testing.assert_array_equal(basis[0], start)
    gram = np.conj(basis) @ basis.T
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)


def test_complete_prefix_and_gram_random():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 97))
        count = int(rng.integers(1, dim + 1))
        unitary = random_unitary(rng, dim)
        padded = np.zeros((dim, 2 * dim), dtype=complex)
        padded[:, ::2] = unitary
        layouts = [
            unitary[:count],
            np.asfortranarray(unitary[:count]),
            padded[:count, ::2],
        ]
        for partial in layouts:
            basis = complete_orthonormal(Ancilla(dim, partial))
            assert basis.shape == (dim, dim)
            np.testing.assert_array_equal(basis[:count], partial)
            gram = np.conj(basis) @ basis.T
            assert np.max(np.abs(gram - np.eye(dim))) <= 1e-12
    # Every canonical prefix completes to exactly the identity.
    for dim in (1, 2, 3, 7, 16, 48, 96):
        identity = np.eye(dim, dtype=complex)
        for count in range(1, dim + 1):
            np.testing.assert_array_equal(
                complete_orthonormal(Ancilla(dim, identity[:count])), identity
            )


def test_complete_full_set_is_a_copy_of_its_rows():
    unitary = random_unitary(np.random.default_rng(7), 5)
    padded = np.zeros((10, 10), dtype=complex)
    padded[::2, ::2] = unitary
    for full in (unitary.copy(), np.asfortranarray(unitary), padded[::2, ::2]):
        before = full.copy()
        basis = complete_orthonormal(Ancilla(5, full))
        np.testing.assert_array_equal(basis, before)
        basis[0, 0] = 7.0
        np.testing.assert_array_equal(full, before)


def wide_qr_completion(partial, dim):
    """Reference completion: QR of ``[partial^T | I]`` with all d candidates."""
    count = partial.shape[0]
    q, r = np.linalg.qr(np.concatenate([partial.T, np.eye(dim)], axis=1))
    signs = np.where(np.diag(r)[count:].real < 0, -1.0, 1.0)
    return np.concatenate([partial, (q[:, count:] * signs).T])


def test_complete_matches_wide_qr_reference():
    # Householder column j depends only on columns 0..j, so dropping the
    # unused candidates changes nothing but rounding: with one BLAS thread
    # the two agree bit for bit, while a threaded BLAS may round the wider
    # updates differently, by up to about cond * eps (0.2 cond * eps seen).
    rng = np.random.default_rng(11)
    for _ in range(150):
        dim = int(rng.integers(1, 97))
        count = int(rng.integers(1, dim + 1))
        partial = random_unitary(rng, dim)[:count]
        square = np.concatenate([partial.T, np.eye(dim)[:, : dim - count]], axis=1)
        atol = 1e-14 * np.linalg.cond(square)
        np.testing.assert_allclose(
            complete_orthonormal(Ancilla(dim, partial)), wide_qr_completion(partial, dim),
            rtol=0, atol=atol,
        )


def test_complete_equals_the_sliced_identity_square_qr_bit_for_bit():
    # The candidates are built as a d x (d - k) identity block, not as a slice
    # of a d x d one; the factored matrix, and so every output bit, is the same.
    rng = np.random.default_rng(12)
    for dim, count in [(1, 1), (2, 1), (7, 1), (7, 3), (16, 15), (40, 9)]:
        partial = random_unitary(rng, dim)[:count]
        square = np.concatenate([partial.T, np.eye(dim)[:, : dim - count]], axis=1)
        q, r = np.linalg.qr(square)
        signs = np.where(np.diag(r)[count:].real < 0, -1.0, 1.0)
        expected = np.concatenate([partial, (q[:, count:] * signs).T])
        np.testing.assert_array_equal(complete_orthonormal(Ancilla(dim, partial)), expected)


def test_complete_reports_a_failed_allocation_as_resource_exhausted(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 39.1 KiB")

    ancilla = Ancilla(50, [computational(50, 0)])
    monkeypatch.setattr(np, "eye", exhausted)
    expected = (
        "^complete_orthonormal needs more memory than is available: Unable to allocate 39.1 KiB$"
    )
    with pytest.raises(ResourceExhausted, match=expected) as info:
        complete_orthonormal(ancilla)
    assert isinstance(info.value, MemoryError)
    assert isinstance(info.value.__cause__, MemoryError)


# complete_orthonormal takes only an Ancilla, which admits its kets.


def test_complete_rejects_overfull():
    with pytest.raises(DimensionMismatch, match="^3 ancilla kets cannot fit in dimension 2$"):
        complete_orthonormal(Ancilla(2, np.eye(3, 2, dtype=complex)))
    with pytest.raises(InvalidArgument, match="^ancilla must be a Ancilla, got ndarray$"):
        complete_orthonormal(np.eye(3, 2, dtype=complex))


def test_complete_rejects_non_orthonormal():
    with pytest.raises(NotOrthonormal):
        complete_orthonormal(Ancilla(2, [computational(2, 0), computational(2, 0)]))
    with pytest.raises(InvalidArgument, match="^ancilla must be a Ancilla, got list$"):
        complete_orthonormal([computational(2, 0), computational(2, 0)])


# ---------------------------------------------------------------------------
# tensor_ket


def test_tensor_canonical():
    out = tensor_ket(computational(2, 0), computational(2, 0))
    np.testing.assert_array_equal(out, computational(4, 0))


def test_tensor_superposition():
    s = (computational(2, 0) + computational(2, 1)) / np.sqrt(2)
    out = tensor_ket(s, computational(2, 0))
    expected = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_tensor_matches_index_formula():
    # Oracle: brute-force double loop over the flat system-major index.
    rng = np.random.default_rng(5)
    s = random_ket(rng, 3)
    m = random_ket(rng, 4)
    out = tensor_ket(s, m)
    for i in range(3):
        for k in range(4):
            assert out[i * 4 + k] == pytest.approx(s[i] * m[k], abs=1e-15)


# ---------------------------------------------------------------------------
# partial_trace_m


def test_trace_bell_is_maximally_mixed():
    reduced = bell_joint().reduced_system()
    np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-12)


def test_trace_product_recovers_projector():
    rng = np.random.default_rng(2)
    s = random_ket(rng, 3)
    m = random_ket(rng, 2)
    reduced = JointState(3, 2, tensor_ket(s, m)).reduced_system()
    np.testing.assert_allclose(reduced, np.outer(s, np.conj(s)), atol=1e-12)


def test_trace_matches_elementwise_sum():
    # Oracle: direct summation rho[i, j] = sum_k Psi[i, k] conj(Psi[j, k]).
    rng = np.random.default_rng(9)
    vec = random_ket(rng, 6)
    reduced = JointState(3, 2, vec).reduced_system()
    psi = vec.reshape(3, 2)
    for i in range(3):
        for j in range(3):
            direct = sum(psi[i, k] * np.conj(psi[j, k]) for k in range(2))
            assert abs(reduced[i, j] - direct) < 1e-12


def test_trace_is_hermitian_psd_unit_trace():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        vec = random_ket(rng, 12)
        reduced = JointState(4, 3, vec).reduced_system()
        assert np.max(np.abs(reduced - np.conj(reduced).T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(reduced)) > -1e-10
        assert abs(np.trace(reduced).real - 1.0) < 1e-10


def test_trace_operator_input_matches_ket_input():
    rng = np.random.default_rng(4)
    vec = random_ket(rng, 6)
    from_ket = JointState(2, 3, vec).reduced_system()
    from_op = partial_trace_m(np.outer(vec, np.conj(vec)), 2, 3)
    np.testing.assert_allclose(from_ket, from_op, atol=1e-12)


def test_tensor_then_trace_recovers_scaled_projector():
    rng = np.random.default_rng(6)
    s = random_ket(rng, 2)
    m = 0.5 * random_ket(rng, 3)  # deliberately unnormalized
    vec = tensor_ket(s, m)
    reduced = partial_trace_m(np.outer(vec, np.conj(vec)), 2, 3)
    expected = np.outer(s, np.conj(s)) * float(np.linalg.norm(m)) ** 2
    assert np.max(np.abs(reduced - expected)) < 1e-12


def test_trace_rejects_bad_dims():
    # A ket is no operator, even of the joint length.
    for ket in (np.zeros(5, dtype=complex), bell_joint().vec):
        with pytest.raises(DimensionMismatch, match="^expected a 2-D joint operator"):
            partial_trace_m(ket, 2, 2)
    with pytest.raises(DimensionMismatch):
        partial_trace_m(np.zeros((3, 4), dtype=complex), 2, 2)


@pytest.mark.parametrize("exponent", [-1000, -700, 700, 1000])
def test_state_of_a_matrix_scaled_out_of_float_range_keeps_its_bits(exponent):
    # A power-of-two scale changes no bit of a state; squares of these leave
    # the normal float range, so the state is taken after an exact rescale.
    rng = np.random.default_rng(41)
    matrix = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    matrix /= np.max(np.abs(matrix))
    state = linalg._state(matrix)
    scaled = matrix * np.ldexp(1.0, exponent // 2) * np.ldexp(1.0, exponent - exponent // 2)
    assert np.isfinite(scaled).all() and np.any(scaled != 0)
    assert bits(linalg._state(scaled)) == bits(state)


def test_state_of_subnormal_kets_and_of_zero():
    np.testing.assert_array_equal(linalg._state(np.eye(2, dtype=complex) * 5e-324), np.eye(2) / 2)
    with np.errstate(all="ignore"):  # zero over zero
        assert np.isnan(linalg._state(np.zeros((2, 2), dtype=complex))).all()


# ---------------------------------------------------------------------------
# schmidt_decompose


def test_schmidt_bell():
    form = schmidt_decompose(bell_joint())
    np.testing.assert_allclose(form.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)
    assert form.rank == 2


def test_schmidt_product():
    rng = np.random.default_rng(8)
    vec = tensor_ket(random_ket(rng, 2), random_ket(rng, 3))
    form = schmidt_decompose(JointState(2, 3, vec))
    assert form.rank == 1
    assert form.coefficients[0] == pytest.approx(1.0, abs=1e-12)


def test_schmidt_known_coefficients():
    # Construct with coefficients (sqrt(0.9), sqrt(0.1)), then decompose.
    vec = np.sqrt(0.9) * tensor_ket(computational(2, 0), computational(2, 0))
    vec += np.sqrt(0.1) * tensor_ket(computational(2, 1), computational(2, 1))
    form = schmidt_decompose(JointState(2, 2, vec))
    np.testing.assert_allclose(
        form.coefficients, [np.sqrt(0.9), np.sqrt(0.1)], atol=1e-12
    )


def test_schmidt_roundtrip_random():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        vec = random_ket(rng, 12)
        form = schmidt_decompose(JointState(3, 4, vec))
        rebuilt = (form.left_kets.T * form.coefficients) @ form.right_kets
        assert np.max(np.abs(rebuilt.reshape(-1) - vec)) < 1e-9
        assert sum(form.coefficients**2) == pytest.approx(1.0, abs=1e-10)
        gram_left = np.conj(form.left_kets) @ form.left_kets.T
        gram_right = np.conj(form.right_kets) @ form.right_kets.T
        assert np.max(np.abs(gram_left - np.eye(form.rank))) < 1e-10
        assert np.max(np.abs(gram_right - np.eye(form.rank))) < 1e-10


# schmidt_decompose takes only a JointState, which admits its ket.


def test_schmidt_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        schmidt_decompose(JointState(2, 2, np.ones(4, dtype=complex)))
    with pytest.raises(InvalidArgument, match="^joint must be a JointState, got ndarray$"):
        schmidt_decompose(np.ones(4, dtype=complex))


def test_schmidt_rejects_bad_dims():
    with pytest.raises(DimensionMismatch):
        schmidt_decompose(JointState(2, 2, np.zeros(5, dtype=complex)))
    with pytest.raises(InvalidArgument, match="^joint must be a JointState, got ndarray$"):
        schmidt_decompose(bell_joint().vec, 2, 2)


def test_schmidt_coefficients_are_the_singular_values_ensemble_containing_takes(
    monkeypatch,
):
    # 2000 joints of dims 2-8 whose norms miss 1 by up to 5e-9: one Schmidt
    # step gives both functions the same unit-norm coefficients, bit for bit.
    taken = []

    def recorded(matrix, rank_tol):
        taken.append(linalg._schmidt(matrix, rank_tol))
        return taken[-1]

    monkeypatch.setattr(purification, "_schmidt", recorded)
    rng = np.random.default_rng(0)
    for _ in range(2000):
        dim_s, dim_m = (int(d) for d in rng.integers(2, 9, size=2))
        vec = random_ket(rng, dim_s * dim_m) * (1.0 + rng.uniform(-5e-9, 5e-9))
        joint = JointState(dim_s, dim_m, vec)
        form = schmidt_decompose(joint)
        ensemble_containing(joint, form.left_kets[0])
        _, coefficients, _, rank = taken.pop()
        assert rank == form.rank
        assert coefficients[:rank].tobytes() == form.coefficients.tobytes()


# ---------------------------------------------------------------------------
# preconditions: one typed error per violated shape, value or solver


@pytest.mark.parametrize("bad", ["1e-3", 1j, np.array([1e-3, 1e-3])])
def test_non_real_tolerance_is_an_invalid_argument(bad):
    with pytest.raises(InvalidArgument, match="^tol must be a finite non-negative"):
        lemma_unitary(bell_joint(), bell_joint(), bad)
    with pytest.raises(InvalidArgument, match="^rank_tol must be a finite non-negative"):
        schmidt_decompose(bell_joint(), rank_tol=bad)


PRECONDITIONS = {
    "ket_ndim": (
        lambda: tensor_ket(np.eye(2), computational(2, 0)),
        DimensionMismatch,
        r"expected a 1-D vector, got shape \(2, 2\)",
    ),
    "operator_ndim": (
        lambda: eig_hermitian(np.ones(2)),
        DimensionMismatch,
        r"expected a 2-D matrix, got shape \(2,\)",
    ),
    "operator_non_finite": (
        lambda: eig_hermitian(np.diag([np.nan, 1.0])),
        InvalidArgument,
        "matrix contains non-finite entries",
    ),
    "ket_list_non_finite": (
        lambda: Ancilla(2, np.array([[np.inf, 0.0]])),
        InvalidArgument,
        "ket list contains non-finite entries",
    ),
    "empty_ket_list_without_dim": (
        lambda: RhoEnsemble(kets=[], weights=[]),
        DimensionMismatch,
        "cannot infer dimension of an empty ket list",
    ),
    "kets_of_dimension_0": (
        lambda: RhoEnsemble(kets=np.zeros((1, 0)), weights=[1.0]),
        DimensionMismatch,
        "ket list has dimension 0, expected at least 1$",
    ),
    "too_many_kets_to_complete": (
        lambda: Ancilla(2, np.ones((3, 2))),
        DimensionMismatch,
        "3 ancilla kets cannot fit in dimension 2",
    ),
    "partial_trace_non_finite_ket": (  # a ket, finite or not, is no operator
        lambda: partial_trace_m([np.nan, 0, 0, 1], 2, 2),
        DimensionMismatch,
        r"expected a 2-D joint operator, got shape \(4,\)",
    ),
    "partial_trace_non_finite_operator": (
        lambda: partial_trace_m(np.full((4, 4), np.inf), 2, 2),
        InvalidArgument,
        "joint operator contains non-finite entries",
    ),
    "partial_trace_ndim": (
        lambda: partial_trace_m(np.zeros((2, 2, 2)), 2, 2),
        DimensionMismatch,
        r"expected a 2-D joint operator, got shape \(2, 2, 2\)",
    ),
    "rank_tol_above_every_coefficient": (
        lambda: schmidt_decompose(bell_joint(), rank_tol=0.75),
        InvalidArgument,
        "rank_tol 7.500e-01 is not below the largest squared Schmidt coefficient 5.000e-01$",
    ),
}


@pytest.mark.parametrize("case", sorted(PRECONDITIONS))
def test_violated_precondition_raises_its_typed_error(case):
    call, error, message = PRECONDITIONS[case]
    with pytest.raises(error, match=f"^{message}"):
        call()


@pytest.mark.parametrize(
    "solver, call, message",
    [
        ("eigh", lambda: eig_hermitian(np.eye(2)), "eigensolver failed"),
        ("svd", lambda: schmidt_decompose(bell_joint()), "SVD failed"),
        ("svd", lambda: lemma_unitary(bell_joint(), bell_joint()), "SVD failed"),
        ("svd", lambda: ensemble_containing(bell_joint(), computational(2, 0)), "SVD failed"),
        (
            "svd",
            lambda: is_linearly_independent(RhoEnsemble(np.eye(2), [0.5, 0.5])),
            "SVD failed",
        ),
    ],
    ids=[
        "eig_hermitian",
        "schmidt_decompose",
        "procrustes",
        "ensemble_containing",
        "is_linearly_independent",
    ],
)
def test_solver_failure_is_a_numerical_failure(monkeypatch, solver, call, message):
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, solver, diverge)
    with pytest.raises(NumericalFailure, match=f"^{message}: did not converge"):
        call()
