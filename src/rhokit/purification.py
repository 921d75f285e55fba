"""Constructive machinery connecting ensembles, purifications, and ancillae.

Everything here operates on a bipartite picture: a system space of dimension
``dim_s`` tensored (system-major) with an ancilla space of dimension
``dim_m``. A normalized joint ket whose reduced system state equals a given
density matrix is a *purification* of it; an orthonormal ket list on the
ancilla side correlated one-to-one with ensemble elements is that ensemble's
*ancilla*. The functions below construct these objects explicitly and convert
between any two ensembles of the same density matrix via unitaries on the
ancilla factor alone.

Phase convention: ensemble amplitudes are always the real positive square
roots of the weights; complex phases are absorbed into the ancilla kets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import RhoEnsemble, _valid_projector_sum
from .errors import (
    DensitiesDiffer,
    DimensionMismatch,
    NotInSupport,
    NotNormalized,
    NotOrthonormal,
    NotOrthonormalBasis,
    NotUnitary,
    NumericalFailure,
    OrderExceedsAncillaDim,
    TracesDiffer,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    DEFAULT_TOL,
    _check_integer,
    _check_tolerances,
    as_ket,
    as_ket_list,
    as_operator,
    complete_orthonormal,
    dagger,
    eig_hermitian,  # noqa: F401 -- perfbench's alias-rebinding test reads it here
    max_abs,
    orthonormality_deviation,
    partial_trace_m,
    schmidt_decompose,
)

# Construction-time sanity checks on value types are looser than the
# per-operation tolerances so that round-tripped values are never rejected.
_CONSTRUCT_TOL = 1e-8


def _trusted(cls, **fields):
    """An instance of a frozen dataclass built without running ``__post_init__``.

    Only for values whose invariants already follow from checks that passed
    on the inputs they were built from; each call site says which.
    """
    value = object.__new__(cls)
    for name, field_value in fields.items():
        object.__setattr__(value, name, field_value)
    return value


@dataclass(frozen=True, eq=False)
class JointState:
    """A normalized ket on the system-major product of two factors."""

    dim_s: int
    dim_m: int
    vec: np.ndarray

    def __post_init__(self):
        vec = as_ket(self.vec)
        object.__setattr__(self, "dim_s", _check_integer("dim_s", self.dim_s, 1))
        object.__setattr__(self, "dim_m", _check_integer("dim_m", self.dim_m, 1))
        if vec.shape[0] != self.dim_s * self.dim_m:
            raise DimensionMismatch(
                f"joint ket has length {vec.shape[0]}, expected "
                f"{self.dim_s}*{self.dim_m}={self.dim_s * self.dim_m}"
            )
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > _CONSTRUCT_TOL:
            raise NotNormalized(f"joint ket has norm {norm!r}, expected 1")
        object.__setattr__(self, "vec", vec)

    def as_matrix(self) -> np.ndarray:
        """The ket reshaped to (dim_s, dim_m); entry [i, k] pairs e_i with m_k."""
        return self.vec.reshape(self.dim_s, self.dim_m)

    def reduced_system(self) -> np.ndarray:
        """Reduced density matrix on the system factor."""
        return partial_trace_m(self.vec, self.dim_s, self.dim_m)


@dataclass(frozen=True, eq=False)
class Ancilla:
    """An orthonormal ket list on the ancilla factor, one ket per element."""

    dim_m: int
    kets: np.ndarray

    def __post_init__(self):
        kets = as_ket_list(self.kets, dim=self.dim_m)
        if kets.shape[0] > self.dim_m:
            raise DimensionMismatch(
                f"{kets.shape[0]} ancilla kets cannot fit in dimension {self.dim_m}"
            )
        deviation = orthonormality_deviation(kets)
        if deviation > _CONSTRUCT_TOL:
            raise NotOrthonormal(
                f"ancilla kets deviate from orthonormality by {deviation:.3e}"
            )
        object.__setattr__(self, "kets", kets)

    @property
    def count(self) -> int:
        return int(self.kets.shape[0])


@dataclass(frozen=True, eq=False)
class UMap:
    """Coefficients relating one ensemble's amplitude-weighted kets to another's.

    ``coeffs`` has orthonormal columns; column k belongs to source element k,
    while row j pairs with target element j for j below the target order and
    with a padding direction (where the relation gives zero) beyond it. When
    the map was produced by rotating purifications, ``generator`` records the
    ancilla-side unitary and ``basis`` the row ket list in which the
    coefficients were taken, so the three can be cross-checked.
    """

    coeffs: np.ndarray
    generator: np.ndarray | None = None
    basis: np.ndarray | None = None

    def __post_init__(self):
        coeffs = as_operator(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if self.generator is not None:
            object.__setattr__(self, "generator", as_operator(self.generator))
        if self.basis is not None:
            object.__setattr__(
                self, "basis", as_ket_list(self.basis, dim=coeffs.shape[0])
            )

    @property
    def rows(self) -> int:
        return int(self.coeffs.shape[0])

    @property
    def cols(self) -> int:
        return int(self.coeffs.shape[1])


def check_umap(u: UMap, tol: float = DEFAULT_TOL) -> list[str]:
    """Report every violated UMap invariant (empty list when clean).

    Checks column orthonormality of the coefficients, unitarity of the
    generator when present, orthonormality of the recorded row basis when
    present, and the consistency ``coeffs[j, k] = <b_j|U|b_k>`` whenever both
    generator and basis are recorded.
    """
    report: list[str] = []
    col_dev = orthonormality_deviation(u.coeffs.T)
    if col_dev > tol:
        report.append(f"coefficient columns deviate from orthonormality by {col_dev:.3e}")
    if u.generator is not None:
        gen = u.generator
        if gen.shape[0] != gen.shape[1]:
            report.append(f"generator is not square: {gen.shape}")
        else:
            unit_dev = orthonormality_deviation(gen.T)
            if unit_dev > tol:
                report.append(f"generator deviates from unitarity by {unit_dev:.3e}")
    if u.basis is not None:
        basis_dev = orthonormality_deviation(u.basis)
        if basis_dev > tol:
            report.append(f"row basis deviates from orthonormality by {basis_dev:.3e}")
        if u.basis.shape[0] != u.rows:
            report.append(
                f"row basis has {u.basis.shape[0]} kets for {u.rows} coefficient rows"
            )
    if u.generator is not None and u.basis is not None and not report:
        expected = np.conj(u.basis) @ u.generator @ u.basis.T
        gen_dev = max_abs(expected[:, : u.cols] - u.coeffs)
        if gen_dev > max(10 * tol, 1e-12):
            report.append(
                f"coefficients deviate from <b_j|U|b_k> by {gen_dev:.3e}"
            )
    return report


def _amplitude_block(e: RhoEnsemble, dim_m: int) -> np.ndarray:
    """(dim, dim_m) matrix of ``sum_j sqrt(w_j) phi_j (x) e_j``; zero past the order."""
    block = np.zeros((e.dim, dim_m), dtype=complex)
    block[:, : e.order] = (np.sqrt(e.weights)[:, None] * e.kets).T
    return block


def _procrustes(a_from: np.ndarray, a_to: np.ndarray) -> np.ndarray:
    """Unitary U minimizing ``||a_from U^T - a_to||_F`` (orthogonal Procrustes).

    With ``W S V^dag = svd(a_from^dag a_to)`` the minimizer is
    ``U^T = W V^dag``, the polar factor. When both blocks have the same
    ``a a^dag`` the minimum is zero, so ``(1 (x) U)`` carries the first
    joint ket onto the second.
    """
    try:
        w, _, vh = np.linalg.svd(dagger(a_from) @ a_to)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD failed: {exc}") from exc
    return (w @ vh).T


def lemma_unitary(
    chi: JointState,
    phi: JointState,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Ancilla-side unitary U with ``(1 (x) U) phi = chi``.

    Requires both joint kets to share the same reduced system state within
    ``tol`` (max norm), else TracesDiffer. U is the orthogonal-Procrustes
    polar factor of the two kets' (dim_s, dim_m) coefficient matrices, one
    SVD; it stays unitary to working precision however small the reduced
    state's weights are.
    """
    _check_tolerances(tol=tol)
    if (chi.dim_s, chi.dim_m) != (phi.dim_s, phi.dim_m):
        raise DimensionMismatch(
            f"joint states have different factor dimensions: "
            f"({chi.dim_s}, {chi.dim_m}) vs ({phi.dim_s}, {phi.dim_m})"
        )
    deviation = max_abs(chi.reduced_system() - phi.reduced_system())
    if deviation > tol:
        raise TracesDiffer(
            f"reduced system states differ by {deviation:.3e} (tol {tol:.3e})"
        )
    return _procrustes(phi.as_matrix(), chi.as_matrix())


def purify(
    e: RhoEnsemble,
    dim_m: int,
    tol: float = DEFAULT_TOL,
) -> tuple[JointState, Ancilla]:
    """Purify an ensemble against the canonical ancilla kets.

    Element j of the ensemble is paired with canonical basis vector e_j of
    the ancilla space, giving the joint ket ``sum_j sqrt(w_j) phi_j (x) e_j``
    whose reduced system state is exactly the ensemble's density matrix.
    Raises OrderExceedsAncillaDim when the ensemble has more elements than
    the ancilla space has dimensions.
    """
    _check_tolerances(tol=tol)
    dim_m = _check_integer("dim_m", dim_m, 1)
    _valid_projector_sum(e, tol)  # raises InvalidEnsemble
    if e.order > dim_m:
        raise OrderExceedsAncillaDim(
            f"ensemble order {e.order} exceeds ancilla dimension {dim_m}"
        )
    block = _amplitude_block(e, dim_m)
    joint = JointState(dim_s=e.dim, dim_m=dim_m, vec=block.reshape(-1))
    # Canonical kets are exactly orthonormal, and there are at most dim_m.
    canonical = np.eye(dim_m, dtype=complex)[: e.order]
    ancilla = _trusted(Ancilla, dim_m=dim_m, kets=canonical)
    return joint, ancilla


def match_purification(
    e: RhoEnsemble,
    target: JointState,
    tol: float = DEFAULT_TOL,
) -> Ancilla:
    """Find the ancilla realizing an ensemble inside a given joint state.

    The ensemble's density matrix must equal the target's reduced system
    state within ``tol`` (else TracesDiffer). The Procrustes polar factor U
    carrying the ensemble's canonical purification onto the target is one
    SVD; ancilla ket j is ``U e_j``, so that
    ``target.vec = sum_j sqrt(w_j) phi_j (x) b_j`` up to the rotation
    residual, with all phases carried by the ancilla kets.
    """
    _check_tolerances(tol=tol)
    if e.dim != target.dim_s:
        raise DimensionMismatch(
            f"ensemble has dimension {e.dim}, joint system factor {target.dim_s}"
        )
    deviation = max_abs(_valid_projector_sum(e, tol) - target.reduced_system())
    if deviation > tol:
        raise TracesDiffer(
            f"ensemble density and reduced target state differ by {deviation:.3e}"
            f" (tol {tol:.3e})"
        )
    if e.order > target.dim_m:
        raise OrderExceedsAncillaDim(
            f"ensemble order {e.order} exceeds ancilla dimension {target.dim_m}"
        )
    rotation = _procrustes(_amplitude_block(e, target.dim_m), target.as_matrix())
    return Ancilla(dim_m=target.dim_m, kets=rotation.T[: e.order])


def ensemble_from_basis(
    joint: JointState,
    basis,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_TOL,
) -> tuple[RhoEnsemble, Ancilla, list[int]]:
    """Condition a joint ket on each ket of an ancilla-side basis.

    For basis ket b_k the unnormalized conditional system vector is
    ``(1 (x) <b_k|) joint``; its squared norm is the element weight. Kets
    with weight above ``rank_tol`` become ensemble elements (normalized, in
    basis order), and ``member_indices`` records which basis positions they
    came from. The member basis kets form the returned ancilla, and
    ``sum_k sqrt(w_k) phi_k (x) b_k`` over members reconstructs the joint
    ket up to the discarded sub-threshold tails.

    A degenerate basis choice can produce collinear conditional vectors;
    the returned ensemble then fails ``validate_ensemble``, which callers
    should apply when they need a strictly valid ensemble.
    """
    _check_tolerances(rank_tol=rank_tol, tol=tol)
    kets = as_ket_list(basis, dim=joint.dim_m)
    if kets.shape[0] != joint.dim_m:
        raise NotOrthonormalBasis(
            f"basis has {kets.shape[0]} kets, expected {joint.dim_m}"
        )
    deviation = orthonormality_deviation(kets)
    if deviation > max(tol, _CONSTRUCT_TOL):
        raise NotOrthonormalBasis(
            f"basis deviates from orthonormality by {deviation:.3e}"
        )
    conditionals = joint.as_matrix() @ np.conj(kets).T
    weights = np.sum(np.abs(conditionals) ** 2, axis=0)
    member_indices = [int(k) for k in np.nonzero(weights > rank_tol)[0]]
    if not member_indices:
        raise NotNormalized("joint ket has no weight above the rank cutoff")
    member_weights = weights[member_indices]
    member_kets = (conditionals[:, member_indices] / np.sqrt(member_weights)).T
    if deviation > _CONSTRUCT_TOL:
        # A ``tol`` looser than _CONSTRUCT_TOL admits bases whose member kets
        # the Ancilla check may reject, and bounds the weights only by tol:
        # build both through the checked constructors, as before.
        ensemble = RhoEnsemble(kets=member_kets, weights=member_weights)
        ancilla = Ancilla(dim_m=joint.dim_m, kets=kets[member_indices])
        return ensemble, ancilla, member_indices
    # Each weight is finite and above rank_tol >= 0, each member-ket entry is
    # at most 1 in magnitude (|c_i| <= sqrt(w)), and the members' Gram matrix
    # is a principal submatrix of the basis Gram matrix checked above.
    ensemble = _trusted(RhoEnsemble, kets=member_kets, weights=member_weights)
    ancilla = _trusted(Ancilla, dim_m=joint.dim_m, kets=kets[member_indices])
    return ensemble, ancilla, member_indices


def umap_between(
    from_e: RhoEnsemble,
    to_e: RhoEnsemble,
    tol: float = DEFAULT_TOL,
) -> UMap:
    """Construct a coefficient map carrying one decomposition into another.

    Both ensembles must decompose the same density matrix within ``tol``
    (else DensitiesDiffer). Their amplitude-weighted kets, padded to a common
    ancilla dimension ``max(order_from, order_to)``, are the coefficient
    matrices of two purifications; the Procrustes polar factor of the pair
    (one SVD) is returned as the generator, and its first ``order_from``
    columns are the coefficients. Row j pairs with target element j for
    ``j < order_to``; for larger j the mapped combination is zero.
    """
    _check_tolerances(tol=tol)
    if from_e.dim != to_e.dim:
        raise DimensionMismatch(
            f"ensembles have different dimensions: {from_e.dim} vs {to_e.dim}"
        )
    deviation = max_abs(
        _valid_projector_sum(from_e, tol) - _valid_projector_sum(to_e, tol)
    )
    if deviation > tol:
        raise DensitiesDiffer(
            f"ensemble densities differ by {deviation:.3e} (tol {tol:.3e})"
        )
    dim_m = max(from_e.order, to_e.order)
    rotation = _procrustes(
        _amplitude_block(from_e, dim_m), _amplitude_block(to_e, dim_m)
    )
    # SVD factors of a finite product of validated amplitude blocks, and an
    # identity basis with one ket per coefficient row.
    return _trusted(
        UMap,
        coeffs=rotation[:, : from_e.order],
        generator=rotation,
        basis=np.eye(dim_m, dtype=complex),
    )


def apply_unitary_umap(
    joint: JointState,
    basis,
    u,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_TOL,
) -> tuple[RhoEnsemble, UMap]:
    """Rotate an ancilla basis by a unitary and extract the induced map.

    ``basis`` implies a source ensemble (its basis-conditioned decomposition
    of ``joint``); the rotated kets ``u b_k`` imply the target ensemble.
    Both decompose the same reduced system state. The returned coefficients
    are taken in the rotated basis reordered members-first, so row j pairs
    with target element j below the target order and gives zero beyond it;
    columns run over source elements.
    """
    _check_tolerances(rank_tol=rank_tol, tol=tol)
    source_kets = as_ket_list(basis, dim=joint.dim_m)
    operator = as_operator(u)
    if operator.shape != (joint.dim_m, joint.dim_m):
        raise DimensionMismatch(
            f"unitary has shape {operator.shape}, expected "
            f"({joint.dim_m}, {joint.dim_m})"
        )
    unit_dev = orthonormality_deviation(operator.T)
    if unit_dev > max(tol, _CONSTRUCT_TOL):
        raise NotUnitary(f"matrix deviates from unitarity by {unit_dev:.3e}")
    rotated_kets = source_kets @ operator.T

    from_e, from_ancilla, from_members = ensemble_from_basis(
        joint, source_kets, rank_tol, tol
    )
    to_e, _, to_members = ensemble_from_basis(joint, rotated_kets, rank_tol, tol)

    row_order = to_members + [k for k in range(joint.dim_m) if k not in to_members]
    col_order = from_members + [k for k in range(joint.dim_m) if k not in from_members]
    row_kets = rotated_kets[row_order]
    paired_source = source_kets[col_order]
    coeffs = np.conj(row_kets) @ from_ancilla.kets.T
    generator = paired_source.T @ np.conj(row_kets)
    # Products of finite kets whose norms the unitarity and basis checks
    # bound; the row basis has one ket per coefficient row.
    return to_e, _trusted(UMap, coeffs=coeffs, generator=generator, basis=row_kets)


def ensemble_containing(
    joint: JointState,
    xi,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_TOL,
) -> tuple[RhoEnsemble, np.ndarray]:
    """Build a decomposition whose first element is a chosen support vector.

    The joint ket is Schmidt-decomposed; expanding the target in the left
    Schmidt kets gives overlaps gamma_s, and the first ancilla ket is formed
    with column coefficients ``(gamma_s / c_s) / sqrt(sum_t |gamma_t/c_t|^2)``
    against the right Schmidt kets. Completing that ket to a full basis and
    conditioning on it yields an ensemble whose first element is the target
    (same phase) with weight ``1 / sum_t |gamma_t/c_t|^2``.

    Raises NotNormalized for a non-unit target and NotInSupport when the
    target has components outside the supported left Schmidt kets beyond
    ``rank_tol``.
    """
    _check_tolerances(rank_tol=rank_tol, tol=tol)
    target = as_ket(xi)
    if target.shape[0] != joint.dim_s:
        raise DimensionMismatch(
            f"target has dimension {target.shape[0]}, expected {joint.dim_s}"
        )
    norm = float(np.linalg.norm(target))
    if abs(norm - 1.0) > tol:
        raise NotNormalized(f"target has norm {norm!r}, expected 1 (tol {tol:.3e})")
    form = schmidt_decompose(joint.vec, joint.dim_s, joint.dim_m, rank_tol, tol)
    overlaps = np.conj(form.left_kets) @ target
    residual = target - form.left_kets.T @ overlaps
    residual_norm = float(np.linalg.norm(residual))
    if residual_norm > max(rank_tol, 1e-12):
        raise NotInSupport(
            f"target sticks out of the support by {residual_norm:.3e}"
            f" (tol {rank_tol:.3e})"
        )
    ratios = overlaps / form.coefficients
    first = np.conj(ratios) / np.linalg.norm(ratios)
    # Complete inside the reduced-state support first: out-of-support
    # directions carry zero weight, and mixing them in can strand several
    # completion kets on one residual support direction, which would make
    # their conditional elements collinear. Inside the support, the right
    # Schmidt kets are candidates in order of rising overlap with the first
    # ancilla ket: the one it leans on most goes last and is never used, so
    # every used candidate keeps a residual of at least 1/sqrt(2). Row 0 of
    # ``support`` is the first ancilla ket.
    order = np.argsort(np.abs(first), kind="stable")
    support = complete_orthonormal([first[order]], form.rank) @ form.right_kets[order]
    basis = complete_orthonormal(support, joint.dim_m)
    ensemble, _, _ = ensemble_from_basis(joint, basis, rank_tol, tol)
    return ensemble, basis
