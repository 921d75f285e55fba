"""Constructive machinery connecting ensembles, purifications, and ancillae.

Everything here operates on a bipartite picture: a system space of dimension
``dim_s`` tensored (system-major) with an ancilla space of dimension
``dim_m``. A normalized joint ket whose reduced system state equals a given
density matrix is a *purification* of it; an orthonormal ket list on the
ancilla side correlated one-to-one with ensemble elements is that ensemble's
*ancilla*. Their records, ``JointState`` and ``Ancilla``, are defined in
``rhokit.linalg`` beside the layout they hold. The functions below construct
these objects explicitly and convert between any two ensembles of the same
density matrix via unitaries on the ancilla factor alone.

Phase convention: ensemble amplitudes are always the real positive square
roots of the weights; complex phases are absorbed into the ancilla kets.

This docstring is the reference for conditioning, the purification lemma and
the values built without their constructor's checks.

Conditioning. ``ensemble_from_basis`` is the one gate that admits an ancilla
basis: its ket count (``dim_m``) and its Gram matrix are checked there, at
the admission, and nowhere else (NotOrthonormalBasis). Basis ket ``b_k``
conditions the normalized joint into ``(1 (x) <b_k|) joint``, whose squared
norm is the element's weight; the rank cutoff keeps the weights above
``rank_tol``, normalized by the rule of ``rhokit.linalg``. ``measure_ancilla``,
``steer`` and ``apply_unitary_umap`` condition through the gate;
``apply_unitary_umap`` passes both its basis and the rotated basis, since each
check admits a deviation up to the admission and their product can exceed it.
``ensemble_containing`` conditions on a basis it builds unitary to working
precision, without the Gram check. A basis larger than the density's rank
can condition two elements onto (nearly) one direction; ``validate_ensemble``
reports them as collinear, and every construction takes the ensemble as it is.

The lemma. ``lemma_unitary``, ``match_purification`` and ``umap_between`` are
one step, ``_lemma``: two purifications of the same state differ by a unitary
on the ancilla. It checks that the two unit-trace reduced states agree within
``tol`` and returns the orthogonal-Procrustes polar factor of the cross block
of the two ``(dim_s, dim_m)`` coefficient matrices: one SVD. An ensemble's
coefficient matrix is that of its canonical purification
(``_amplitude_block``), so its precondition comes first:
``match_purification`` checks the dimension, then the hypotheses, then the
order against ``dim_m``, and last the states (TracesDiffer); ``purify`` makes
the same checks before it allocates its joint ket, and ``umap_between``
checks ``from_e`` before ``to_e``.

Built unchecked. ``_trusted`` builds a value without its constructor's checks
where checks that already passed, or the way the value was built, imply
them; the comment at each call site names which. It builds ``purify``'s
``Ancilla``, the ``RhoEnsemble`` and ``Ancilla`` of ``_condition`` (for
``ensemble_from_basis`` and ``ensemble_containing``), ``match_purification``'s
``Ancilla``, the ``UMap`` of ``umap_between`` and of ``apply_unitary_umap``,
and ``steer``'s ``SteeringReport``. The seeded tests in
``tests/test_boundary.py`` rebuild every such output through the checked
constructors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import RhoEnsemble, _amplitude_block
from .errors import (
    DensitiesDiffer,
    DimensionMismatch,
    NotInSupport,
    NotOrthonormalBasis,
    NotUnitary,
    RhokitError,
    TracesDiffer,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    DEFAULT_TOL,
    Ancilla,
    JointState,
    _admit_orthonormal,
    _admit_unit_norm,
    _at_unit_norm,
    _check_integer,
    _kept_rank,
    _out_of_memory,
    _public,
    _schmidt,
    _state,
    _svd,
    as_ket,
    as_ket_list,
    as_operator,
    dagger,
    eig_hermitian,  # noqa: F401 -- perfbench's alias-rebinding test reads it here
    max_abs,
    orthonormality_deviation,
)


def _trusted(cls, **fields):
    """An instance of a frozen dataclass built without running ``__post_init__``.

    Only where the module docstring's "Built unchecked" allows; each call
    site says which checks imply the invariants.
    """
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


@dataclass(frozen=True, eq=False)
class UMap:
    """A map between two decompositions in the theorem's ancilla form: the
    ancilla unitary ``generator``, the row ``basis`` whose kets ``b_j`` it is
    read in, and ``cols``, the source order.

    The coefficients are read from the unitary, never stored:
    ``coeffs = (conj(basis) @ generator @ basis.T)[:, :cols]``, that is
    ``coeffs[j, k] = <b_j|U|b_k>``. Column k belongs to source element k,
    while row j pairs with target element j for j below the target order and
    with a padding direction (where the relation gives zero) beyond it.

    Construction refuses every shape error with DimensionMismatch: a
    generator that is not square and a basis not of the generator's
    ``(rows, rows)`` shape. ``cols`` must be an integer in ``[1, rows]``
    (else InvalidArgument). Whether the numbers hold is ``check_umap``'s to
    report.
    """

    generator: np.ndarray
    basis: np.ndarray
    cols: int

    @_public
    def __post_init__(self):
        generator, basis = as_operator(self.generator), as_operator(self.basis)
        rows = generator.shape[0]
        for name, matrix in (("generator", generator), ("basis", basis)):
            if matrix.shape != (rows, rows):
                raise DimensionMismatch(
                    f"{name} has shape {matrix.shape}, expected ({rows}, {rows})"
                )
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "cols", _check_integer("cols", self.cols, 1, rows))

    @property
    def rows(self) -> int:
        return int(self.generator.shape[0])

    @property
    def coeffs(self) -> np.ndarray:
        return (np.conj(self.basis) @ self.generator @ self.basis.T)[:, : self.cols]


@_public
def check_umap(u: UMap, tol: float = DEFAULT_TOL) -> list[str]:
    """Report every violated UMap invariant (empty list when clean).

    ``UMap`` has refused every shape error, so only numbers are checked, each
    against ``tol``: the column orthonormality of the coefficients, the
    unitarity of the generator and the orthonormality of the row basis.
    """
    report: list[str] = []
    for what, kets in (
        ("coefficient columns deviate from orthonormality", u.coeffs.T),
        ("generator deviates from unitarity", u.generator.T),
        ("row basis deviates from orthonormality", u.basis),
    ):
        deviation = orthonormality_deviation(kets)
        if deviation > tol:
            report.append(f"{what} by {deviation:.3e}")
    return report


def _lemma(a_from, a_to, tol, error, what) -> np.ndarray:
    """The purification lemma: the unitary U with ``a_from U^T = a_to``.

    ``a_from``, ``a_to``: (dim_s, dim_m) coefficient matrices of two joint
    kets (``as_matrix()`` or ``_amplitude_block``), whose ``_state``s must
    agree within ``tol`` (max norm), else ``error``. With ``W S V^dag =
    svd(a_from^dag a_to)``, ``U^T = W V^dag`` minimizes ``||a_from U^T - a_to||_F``
    (orthogonal Procrustes), to zero when the states and norms are equal. No
    positive scale changes it. One SVD, unitary to working precision.
    """
    difference = _state(a_from)
    deviation = max_abs(np.subtract(difference, _state(a_to), out=difference))
    del difference  # subtracted in place, and freed before the SVD allocates
    if deviation > tol:
        raise error(f"{what} differ by {deviation:.3e} (tol {tol:.3e})")
    w, _, vh = _svd(dagger(a_from) @ a_to)
    return (w @ vh).T


@_public
def lemma_unitary(
    chi: JointState,
    phi: JointState,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Ancilla-side unitary U with ``(1 (x) U) phi = chi``.

    Requires both joint kets to share the same unit-trace reduced system state
    within ``tol`` (max norm), else TracesDiffer. U is ``_lemma``'s polar
    factor of the two kets' (dim_s, dim_m) coefficient matrices: one SVD,
    unitary to working precision however small the reduced state's weights are.
    """
    if (chi.dim_s, chi.dim_m) != (phi.dim_s, phi.dim_m):
        raise DimensionMismatch(
            f"joint states have different factor dimensions: "
            f"({chi.dim_s}, {chi.dim_m}) vs ({phi.dim_s}, {phi.dim_m})"
        )
    return _lemma(phi.as_matrix(), chi.as_matrix(), tol, TracesDiffer, "reduced system states")


@_public
def purify(e: RhoEnsemble, dim_m: int) -> tuple[JointState, Ancilla]:
    """Purify an ensemble against the canonical ancilla kets.

    Element j of the ensemble is paired with canonical basis vector e_j of
    the ancilla space, giving ``sum_j sqrt(w_j) phi_j (x) e_j`` divided by its
    norm: a unit joint ket whose reduced system state is the ensemble's
    density matrix over its trace, the density itself for a weight sum of 1.
    Raises InvalidEnsemble unless the theorem's hypotheses hold,
    OrderExceedsAncillaDim when the ensemble has more elements than the ancilla
    space has dimensions, and ResourceExhausted when the ``dim * dim_m`` joint
    ket cannot be allocated or numpy cannot represent its size.
    """
    dim_m = _check_integer("dim_m", dim_m, 1)
    try:
        vec = _amplitude_block(e, dim_m).reshape(-1)
        joint = JointState(dim_s=e.dim, dim_m=dim_m, vec=_at_unit_norm(vec, vec))
        # Canonical kets are exactly orthonormal, and there are at most dim_m.
        canonical = np.eye(e.order, dim_m, dtype=complex)
    except RhokitError:  # InvalidArgument is a ValueError too
        raise
    except ValueError as exc:
        raise _out_of_memory(f"a joint ket of dimension {e.dim}*{dim_m}") from exc
    ancilla = _trusted(Ancilla, dim_m=dim_m, kets=canonical)
    return joint, ancilla


@_public
def match_purification(
    e: RhoEnsemble,
    target: JointState,
    tol: float = DEFAULT_TOL,
) -> Ancilla:
    """Find the ancilla realizing an ensemble inside a given joint state.

    The ensemble is admitted as ``purify`` admits it (else InvalidEnsemble or
    OrderExceedsAncillaDim), and its density over its trace (the state of its
    ``purify``) must equal the target's reduced system state within ``tol``
    (else TracesDiffer), all that ``tol`` judges. ``_lemma``'s polar factor U
    carrying that purification onto the target is one SVD; ancilla ket j is
    ``U e_j``, so that ``target.vec = sum_j sqrt(w_j) phi_j (x) b_j`` up to the
    rotation residual and the norms, with all phases carried by the ancilla kets.
    """
    if e.dim != target.dim_s:
        raise DimensionMismatch(
            f"ensemble has dimension {e.dim}, joint system factor {target.dim_s}"
        )
    rotation = _lemma(
        _amplitude_block(e, target.dim_m), target.as_matrix(),
        tol, TracesDiffer, "ensemble density and reduced target state"
    )
    # Rows of an SVD polar factor of a finite product, as in umap_between,
    # and at most dim_m of them (_amplitude_block's order check).
    return _trusted(Ancilla, dim_m=target.dim_m, kets=rotation.T[: e.order])


@_public
def ensemble_from_basis(
    joint: JointState,
    basis,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> tuple[RhoEnsemble, Ancilla, list[int]]:
    """Condition a joint ket on each ket of an ancilla-side basis.

    For basis ket b_k the unnormalized conditional system vector is
    ``(1 (x) <b_k|) joint``; its squared norm is the element weight. Kets
    with weight above ``rank_tol`` become ensemble elements (normalized, in
    basis order), and ``member_indices`` records which basis positions they
    came from. The member basis kets form the returned ancilla. The weights
    follow the normalization rule, so they sum to 1 for every admitted
    basis; ``sum_k sqrt(w_k) phi_k (x) b_k`` over members is the normalized
    joint ket without its sub-threshold tails, over that total's root.

    The basis is admitted as the module docstring's conditioning says: ``dim_m``
    kets, orthonormal as the Ancilla its member kets become (else
    NotOrthonormalBasis).
    """
    kets = as_ket_list(basis, dim=joint.dim_m)
    if kets.shape[0] != joint.dim_m:
        raise NotOrthonormalBasis(
            f"basis has {kets.shape[0]} kets, expected {joint.dim_m}"
        )
    _admit_orthonormal(kets, NotOrthonormalBasis, "basis deviates from orthonormality")
    return _condition(joint, kets, rank_tol)


def _condition(
    joint: JointState, kets: np.ndarray, rank_tol: float
) -> tuple[RhoEnsemble, Ancilla, list[int]]:
    """``ensemble_from_basis`` after its checks, kept weights over their own sum,
    outputs built unchecked: sound for a complete basis ``kets`` within
    ``_CONSTRUCT_TOL`` of orthonormal."""
    matrix = joint.as_matrix()
    conditionals = _at_unit_norm(matrix @ np.conj(kets).T, matrix)
    weights = (np.abs(conditionals) ** 2).sum(axis=0)
    rank = _kept_rank(weights, rank_tol, "conditional weight")
    members = list(range(joint.dim_m))
    if rank < joint.dim_m:  # copy out the members only when some ket drops
        index = np.flatnonzero(weights > rank_tol)
        kets, weights = kets[index], weights[index]
        conditionals, members = conditionals[:, index], index.tolist()
    member_kets = (conditionals / np.sqrt(weights)).T
    # Each weight is finite and above rank_tol >= 0, also over their total,
    # each member-ket entry is at most 1 in magnitude (|c_i| <= sqrt(w)), and
    # the members' Gram matrix is a principal submatrix of the basis Gram matrix.
    ensemble = _trusted(RhoEnsemble, kets=member_kets, weights=weights / weights.sum())
    ancilla = _trusted(Ancilla, dim_m=joint.dim_m, kets=kets)
    return ensemble, ancilla, members


@_public
def umap_between(
    from_e: RhoEnsemble,
    to_e: RhoEnsemble,
    tol: float = DEFAULT_TOL,
) -> UMap:
    """Construct the map carrying one decomposition into another.

    Both ensembles must meet the theorem's hypotheses (else InvalidEnsemble;
    collinear elements are accepted), ``from_e`` first, and their densities over
    their traces must agree within ``tol``, all that ``tol`` judges (else
    DensitiesDiffer). Their amplitude blocks
    are the coefficient matrices of two purifications on an ancilla of dimension
    ``max(order_from, order_to)``; ``_lemma``'s polar factor carrying one
    onto the other (one SVD) is the generator, read in the identity basis
    with ``cols = order_from``, so the coefficients are its first
    ``order_from`` columns.
    """
    if from_e.dim != to_e.dim:
        raise DimensionMismatch(
            f"ensembles have different dimensions: {from_e.dim} vs {to_e.dim}"
        )
    dim_m = max(from_e.order, to_e.order)
    rotation = _lemma(
        _amplitude_block(from_e, dim_m), _amplitude_block(to_e, dim_m),
        tol, DensitiesDiffer, "ensemble densities"
    )
    # SVD factors of a finite product of validated amplitude blocks, an
    # identity basis of their size, and 1 <= order_from <= dim_m.
    return _trusted(
        UMap, generator=rotation, basis=np.eye(dim_m, dtype=complex), cols=from_e.order
    )


def _members_first(members: list[int], dim: int) -> np.ndarray:
    """Indices ``0..dim-1`` with ``members`` first, in their order, then the rest."""
    rest = np.ones(dim, dtype=bool)
    rest[members] = False
    return np.concatenate([members, np.flatnonzero(rest)])


@_public
def apply_unitary_umap(
    joint: JointState,
    basis,
    u,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> tuple[RhoEnsemble, UMap]:
    """Rotate an ancilla basis by a unitary and extract the induced map.

    ``basis`` implies a source ensemble (its basis-conditioned decomposition
    of ``joint``); the rotated kets ``u b_k`` imply the target ensemble.
    Both decompose the same reduced system state. The returned map's row
    basis is the rotated basis reordered members-first, and its generator
    carries row ket j to source ket j, source members first, so row j pairs
    with target element j below the target order and gives zero beyond it;
    columns run over source elements. ``u`` is admitted unitary (else
    NotUnitary), and the basis and the rotated basis are admitted as
    ``ensemble_from_basis`` admits a basis (else NotOrthonormalBasis).
    """
    source_kets = as_ket_list(basis, dim=joint.dim_m)
    operator = as_operator(u)
    if operator.shape != (joint.dim_m, joint.dim_m):
        raise DimensionMismatch(
            f"unitary has shape {operator.shape}, expected "
            f"({joint.dim_m}, {joint.dim_m})"
        )
    _admit_orthonormal(operator.T, NotUnitary, "matrix deviates from unitarity")
    rotated_kets = source_kets @ operator.T

    _, _, from_members = ensemble_from_basis(joint, source_kets, rank_tol)
    # Each check admits deviations up to _CONSTRUCT_TOL, so the rotated
    # basis can miss that bound although basis and unitary both pass.
    to_e, _, to_members = ensemble_from_basis(joint, rotated_kets, rank_tol)

    row_kets = rotated_kets[_members_first(to_members, joint.dim_m)]
    paired_source = source_kets[_members_first(from_members, joint.dim_m)]
    generator = paired_source.T @ np.conj(row_kets)
    # A product of finite kets whose norms the unitarity and basis checks
    # bound, square as the row basis, and 1 <= source order <= dim_m.
    return to_e, _trusted(UMap, generator=generator, basis=row_kets, cols=len(from_members))


@_public
def ensemble_containing(
    joint: JointState,
    xi,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> tuple[RhoEnsemble, np.ndarray]:
    """Build a decomposition whose first element is a chosen support vector.

    One SVD ``sum_s sigma_s u_s (x) v_s`` of the normalized joint decides and builds.
    The target xi is admitted iff its largest weight in any decomposition,
    ``W = 1 / sum_s |<u_s|xi>|^2 / sigma_s^2`` (sigma_s floored at
    ``floor = sigma_0 * max(dim_s, dim_m) * eps``, and so is xi's component
    outside the left kets), exceeds ``t = max(rank_tol, floor)`` and the
    share ``L`` of xi outside the kept support (``sigma_s^2 > rank_tol``) is at
    most ``sqrt(t)``; else NotInSupport is raised. Element 0 is xi's
    normalized projection onto the kept support, phase included, within
    ``sqrt(2 L)`` of xi, where ``L <= lambda / W`` with ``lambda`` the largest
    dropped ``sigma_s^2``; the other elements are one valid choice among many.
    A member of weight ``p >= sqrt(t)`` of a decomposition has ``W >= p`` and
    ``L <= lambda / p <= sqrt(t)``, so it is admitted even when the density has
    eigenvalues below ``rank_tol``; at ``rank_tol = 0`` the cutoff is the floor,
    so a weight at the rounding level never admits a target. The SVD is full
    only where ``dim_s < dim_m``, so that it spans the ancilla. The first
    ancilla ket lies in the span of the kept right kets: the right factor of
    its own SVD, its first row rephased to the ket, completes it there, and the
    joint SVD's other right kets complete the ancilla space. The target is
    admitted at unit norm (else NotNormalized), and W and L are those of
    ``xi / ||xi||``, so the result does not depend on the norm. A cutoff past
    every ``sigma_s^2`` raises InvalidArgument before the target's support is
    judged, an SVD that fails to converge NumericalFailure, one that cannot be
    allocated ResourceExhausted.
    """
    target = as_ket(xi)
    if target.shape[0] != joint.dim_s:
        raise DimensionMismatch(
            f"target has dimension {target.shape[0]}, expected {joint.dim_s}"
        )
    norm = _admit_unit_norm(target, "target")
    u, sv, vh, rank = _schmidt(joint.as_matrix(), rank_tol)
    floor = sv[0] * max(joint.dim_s, joint.dim_m) * np.finfo(float).eps
    cutoff = max(rank_tol, floor)
    overlaps = dagger(u) @ target
    ratios = overlaps / np.maximum(sv, floor)
    outside = float(np.linalg.norm(target - u @ overlaps))
    weight = norm**2 / (np.vdot(ratios, ratios).real + (outside / floor) ** 2)
    share = 1.0 - np.vdot(overlaps[:rank], overlaps[:rank]).real / norm**2
    if not (weight > cutoff and share <= np.sqrt(cutoff)):
        raise NotInSupport(
            f"target has largest weight {weight:.3e} and share {share:.3e} outside"
            f" the kept support, against cutoffs {cutoff:.3e} and {np.sqrt(cutoff):.3e}"
        )
    first = np.conj(ratios[:rank]) / np.linalg.norm(ratios[:rank])
    # first's right singular kets, row 0 rephased to first, complete it within
    # the kept right kets, so no zero-weight direction enters the weighted kets.
    rotation = _svd(first[None])[2]
    rotation[0] = first
    # Unitary to working precision, far inside the bounds both checks apply.
    basis = np.concatenate([rotation @ vh[:rank], vh[rank:]])
    ensemble, _, _ = _condition(joint, basis, rank_tol)
    return ensemble, basis
