"""Weighted-ket decompositions of density matrices and their validation.

A decomposition is a finite list of (normalized ket, positive weight) pairs
whose weighted projector sum reproduces a density matrix. Structural
requirements beyond positive weights (weight normalization, unit norms,
pairwise noncollinearity) are *reported* by ``validate_ensemble`` rather than
enforced at construction, so that invalid data can be inspected instead of
rejected outright. The order is never below the support rank, as n projectors
sum to rank at most n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, InvalidEnsemble
from .linalg import (
    DEFAULT_RANK_TOL,
    DEFAULT_TOL,
    _check_tolerances,
    as_ket_list,
    eig_hermitian,
    gram_matrix,
    max_abs,
    numerical_rank,
)

# The noncollinearity requirement has no intrinsic scale; 1e-8 on
# 1 - |<phi_i|phi_j>| separates genuinely distinct directions from
# round-tripped duplicates.
DEFAULT_COLLINEARITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A positive Hermitian unit-trace operator with cached eigendata.

    ``spectrum`` is sorted descending, ``eigenkets`` holds the matching
    orthonormal eigenvectors as rows, and ``support_rank`` counts the
    eigenvalues above the rank cutoff used at construction.
    """

    dim: int
    matrix: np.ndarray
    spectrum: np.ndarray
    eigenkets: np.ndarray
    support_rank: int


@dataclass(frozen=True, eq=False)
class RhoEnsemble:
    """A weighted list of kets decomposing a density matrix.

    ``kets`` has one normalized ket per row and ``weights`` the matching
    positive weights. Element order is meaningful (basis-conditioned
    constructions preserve it) and is never silently re-sorted.
    """

    kets: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        kets = as_ket_list(self.kets)
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1 or weights.shape[0] != kets.shape[0]:
            raise DimensionMismatch(
                f"{kets.shape[0]} kets but {weights.shape} weights"
            )
        if kets.shape[0] == 0:
            raise InvalidEnsemble("ensemble must contain at least one element")
        if not np.all(np.isfinite(weights)):
            raise InvalidArgument("weights contain non-finite entries")
        if np.any(weights <= 0.0):
            bad = int(np.argmax(weights <= 0.0))
            raise InvalidEnsemble(
                f"element {bad} has non-positive weight {weights[bad]!r}"
            )
        object.__setattr__(self, "kets", kets)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return int(self.kets.shape[1])

    @property
    def order(self) -> int:
        return int(self.kets.shape[0])

    def elements(self):
        """Iterate (ket, weight) pairs in stored order."""
        return zip(self.kets, self.weights)


def _weighted_projector_sum(kets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_j w_j |k_j><k_j|`` for a row-stacked ket list."""
    return kets.T @ (weights[:, None] * np.conj(kets))


def _valid_projector_sum(
    e: RhoEnsemble,
    tol: float,
    collinearity_tol: float = DEFAULT_COLLINEARITY_TOL,
) -> np.ndarray:
    """Weighted projector sum; InvalidEnsemble(report) if ``validate_ensemble`` fails."""
    report = validate_ensemble(e, tol, collinearity_tol=collinearity_tol)
    if report:
        raise InvalidEnsemble(report)
    return _weighted_projector_sum(e.kets, e.weights)


def ensemble_to_density(
    e: RhoEnsemble,
    tol: float = DEFAULT_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
    collinearity_tol: float = DEFAULT_COLLINEARITY_TOL,
) -> DensityMatrix:
    """Sum the weighted projectors of a valid ensemble into a DensityMatrix.

    Raises InvalidEnsemble (carrying the violation report) if the ensemble
    fails ``validate_ensemble``. ``rank_tol`` sets ``support_rank``.
    """
    _check_tolerances(tol=tol, rank_tol=rank_tol, collinearity_tol=collinearity_tol)
    matrix = _valid_projector_sum(e, tol, collinearity_tol)
    spectrum, eigenkets = eig_hermitian(matrix, tol)
    return DensityMatrix(
        dim=e.dim,
        matrix=matrix,
        spectrum=spectrum,
        eigenkets=eigenkets,
        support_rank=numerical_rank(spectrum, rank_tol),
    )


def density_from_matrix(
    matrix,
    tol: float = DEFAULT_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> DensityMatrix:
    """Validate an explicit matrix as a density matrix and cache eigendata.

    Raises NotHermitian for asymmetric input and InvalidArgument when the
    spectrum dips below ``-tol`` or the trace is not 1 within ``tol``.
    """
    _check_tolerances(tol=tol, rank_tol=rank_tol)
    spectrum, eigenkets = eig_hermitian(matrix, tol)
    if spectrum[-1] < -tol:
        raise InvalidArgument(
            f"matrix has negative eigenvalue {spectrum[-1]!r} (tol {tol:.3e})"
        )
    trace = float(np.sum(spectrum))
    if abs(trace - 1.0) > max(tol * len(spectrum), tol):
        raise InvalidArgument(f"matrix has trace {trace!r}, expected 1")
    arr = np.asarray(matrix, dtype=complex)
    return DensityMatrix(
        dim=arr.shape[0],
        matrix=arr,
        spectrum=spectrum,
        eigenkets=eigenkets,
        support_rank=numerical_rank(spectrum, rank_tol),
    )


def eigen_ensemble(rho: DensityMatrix) -> RhoEnsemble:
    """The spectral decomposition of a density matrix as an ensemble."""
    n = rho.support_rank
    return RhoEnsemble(kets=rho.eigenkets[:n], weights=rho.spectrum[:n])


def validate_ensemble(
    e: RhoEnsemble,
    tol: float = DEFAULT_TOL,
    *,
    collinearity_tol: float = DEFAULT_COLLINEARITY_TOL,
) -> list[str]:
    """Check every ensemble invariant; return a report of violations.

    An empty list means the ensemble is valid at the given tolerances.
    Violations are data, not errors: each entry names the failed invariant
    and the offending element indices, pairs in row-major ``(i, j)`` order.
    Order >= support rank is not checked: n projectors sum to rank at most n.
    """
    report: list[str] = []
    weight_sum = float(np.sum(e.weights))
    # Written as ``not (x <= bound)`` so that a NaN value or tolerance fails.
    if not abs(weight_sum - 1.0) <= max(tol, tol * e.order):
        report.append(f"weights sum to {weight_sum!r}, expected 1")
    for j in np.flatnonzero(e.weights <= 0.0):
        report.append(f"element {j} has non-positive weight {e.weights[j]!r}")
    norms = np.linalg.norm(e.kets, axis=1)
    for j in np.flatnonzero(~(np.abs(norms - 1.0) <= tol)):
        report.append(f"element {j} has norm {float(norms[j])!r}, expected 1")
    overlaps = np.abs(gram_matrix(e.kets))
    collinear = np.triu(overlaps >= 1.0 - collinearity_tol, k=1)
    for i, j in zip(*np.nonzero(collinear)):
        report.append(
            f"elements ({i}, {j}) are collinear (|overlap| = {overlaps[i, j]!r})"
        )
    return report


def is_linearly_independent(e: RhoEnsemble, rank_tol: float = DEFAULT_RANK_TOL) -> bool:
    """True iff the element kets have full numerical rank (via SVD)."""
    singular_values = np.linalg.svd(e.kets, compute_uv=False)
    return numerical_rank(singular_values, rank_tol) == e.order


def ensembles_equal(a: RhoEnsemble, b: RhoEnsemble, tol: float = 1e-8) -> bool:
    """Equality up to element permutation and per-element phase.

    Elements are matched greedily: descending by weight, then by fidelity
    ``|<phi|psi>|`` among candidates whose weights agree within ``tol``. The
    greedy pass can in principle miss a matching between near-degenerate
    adversarial ensembles; it is exact for the well-separated and the
    exactly-degenerate cases that occur in practice.
    """
    if a.order != b.order or a.dim != b.dim:
        return False
    order_a = np.argsort(-a.weights, kind="stable")
    unmatched = list(np.argsort(-b.weights, kind="stable"))
    for i in order_a:
        best_j = None
        best_fid = -1.0
        for j in unmatched:
            if abs(a.weights[i] - b.weights[j]) > tol:
                continue
            fid = abs(np.vdot(a.kets[i], b.kets[j]))
            if fid > best_fid:
                best_fid = fid
                best_j = j
        if best_j is None or best_fid < 1.0 - tol:
            return False
        unmatched.remove(best_j)
    return True


def densities_match(a: RhoEnsemble, b: RhoEnsemble, tol: float = DEFAULT_TOL) -> bool:
    """True iff both ensembles sum to the same matrix within ``tol`` (max norm)."""
    if a.dim != b.dim:
        return False
    return max_abs(
        _weighted_projector_sum(a.kets, a.weights)
        - _weighted_projector_sum(b.kets, b.weights)
    ) <= tol
