"""Weighted-ket decompositions of density matrices and their validation.

A decomposition is a finite list of (normalized ket, positive weight) pairs
whose weighted projector sum reproduces a density matrix. Structural
requirements beyond positive weights (weight normalization, unit norms,
pairwise noncollinearity) are *reported* by ``validate_ensemble`` rather than
enforced at construction, so that invalid data can be inspected instead of
rejected outright. What is built from an ensemble (``ensemble_to_density``,
and ``purify``, ``match_purification`` and ``umap_between``) requires only
the Schrödinger-HJW theorem's hypotheses: positive weights summing to 1 and
unit-norm kets, repeated or collinear kets included. Two elements are
collinear when their pair density ``p_i |phi_i><phi_i| + p_j |phi_j><phi_j|``
has rank 1 at the default ``rank_tol``, the one cutoff that also decides
which weights count; that is reported, never refused. The order is never
below the support rank, as n projectors sum to rank at most n. A density
matrix is its matrix: its eigendata are derived from it when it is built, and
the support rank exists where a cutoff cuts its spectrum into an ensemble, in
``eigen_ensemble``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, InvalidEnsemble
from .linalg import (
    DEFAULT_RANK_TOL,
    DEFAULT_TOL,
    _admit_hermitian,
    _convert,
    _kept_rank,
    _public,
    _svd,
    as_ket_list,
    eig_hermitian,
    gram_matrix,
    max_abs,
)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A Hermitian matrix and the eigendata derived from it.

    ``DensityMatrix(matrix)`` takes one value, a finite square matrix Hermitian
    within ``DEFAULT_TOL`` (else InvalidArgument, DimensionMismatch or
    NotHermitian), and decomposes it with one ``eig_hermitian`` call:
    ``spectrum`` is sorted descending and ``eigenkets`` holds the matching
    orthonormal eigenvectors as rows. So ``dataclasses.replace(rho, matrix=m)``
    derives them again, and no record disagrees with its matrix. Positivity
    and unit trace are ``density_from_matrix``'s checks. ``dim`` is read from
    ``matrix``.
    """

    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False)
    eigenkets: np.ndarray = field(init=False)

    @_public
    def __post_init__(self):
        matrix = _convert(self.matrix)
        spectrum, eigenkets = eig_hermitian(matrix)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "eigenkets", eigenkets)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


@dataclass(frozen=True, eq=False)
class RhoEnsemble:
    """A weighted list of kets decomposing a density matrix.

    ``kets`` has one normalized ket per row and ``weights`` the matching
    positive weights. Element order is meaningful (basis-conditioned
    constructions preserve it) and is never silently re-sorted.
    """

    kets: np.ndarray
    weights: np.ndarray

    @_public
    def __post_init__(self):
        kets = as_ket_list(self.kets)
        weights = _convert(self.weights, float)
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
                f"element {bad} has non-positive weight {float(weights[bad])!r}"
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


def _unmet_hypotheses(e: RhoEnsemble, tol: float) -> list[str]:
    """The theorem's hypotheses ``e`` fails, one report line each: weights that
    sum to 1 within ``tol * order``, every ket of unit norm within ``tol``.
    Only O(order * dim) work: no pair of elements is read.
    """
    weight_sum = float(e.weights.sum())
    norms = np.sqrt((e.kets.conj() * e.kets).real.sum(axis=1))
    unit_norm = np.abs(norms - 1.0) <= tol
    report: list[str] = []
    if abs(weight_sum - 1.0) > tol * e.order:
        report.append(f"weights sum to {weight_sum!r}, expected 1")
    # The index pass below runs only when the check fired.
    if not unit_norm.all():
        for j in np.flatnonzero(~unit_norm):
            report.append(f"element {j} has norm {float(norms[j])!r}, expected 1")
    return report


def _require_valid(e: RhoEnsemble, tol: float) -> None:
    """Raise InvalidEnsemble(report) unless ``e`` meets the theorem's hypotheses.

    The one precondition of every construction that takes an ensemble, checked by
    ``ensemble_to_density`` and by ``purification._amplitude_block`` for the others.
    Collinear elements are accepted: the theorem holds for repeated kets.
    """
    report = _unmet_hypotheses(e, tol)
    if report:
        raise InvalidEnsemble(report)


@_public
def ensemble_to_density(e: RhoEnsemble, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Sum the weighted projectors of an ensemble into a DensityMatrix.

    Raises InvalidEnsemble (carrying the violation report) unless the weights
    sum to 1 and the kets have unit norm; collinear elements are summed like
    any others.
    """
    _require_valid(e, tol)
    matrix = _weighted_projector_sum(e.kets, e.weights)
    # Hermitian only up to rounding, the sum is made exactly so: the record's
    # eig_hermitian, at DEFAULT_TOL, then admits the density of an ensemble
    # admitted at any tol, and its own symmetrization is exact.
    return DensityMatrix((matrix + matrix.conj().T) / 2.0)


@_public
def density_from_matrix(matrix, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Validate an explicit matrix as a density matrix: the record of its
    Hermitian part ``(m + m^dag) / 2``.

    Raises DimensionMismatch for a matrix that is not square, NotHermitian for
    one asymmetric beyond ``tol``, InvalidArgument when the spectrum dips below
    ``-tol`` or is not of trace 1 within ``tol``.
    """
    rho = DensityMatrix(_admit_hermitian(matrix, tol))
    spectrum = rho.spectrum
    if spectrum[-1] < -tol:
        raise InvalidArgument(
            f"matrix has negative eigenvalue {float(spectrum[-1])!r} (tol {tol:.3e})"
        )
    trace = float(np.sum(spectrum))
    if abs(trace - 1.0) > tol * len(spectrum):
        raise InvalidArgument(f"matrix has trace {trace!r}, expected 1")
    return rho


@_public
def eigen_ensemble(rho: DensityMatrix, rank_tol: float = DEFAULT_RANK_TOL) -> RhoEnsemble:
    """The spectral decomposition of a density matrix as an ensemble: the eigenkets
    whose eigenvalues lie above ``rank_tol``, InvalidArgument if none does.
    The record derived its eigendata from its matrix, so they are taken as
    they are."""
    n = _kept_rank(rho.spectrum, rank_tol, "eigenvalue")
    return RhoEnsemble(kets=rho.eigenkets[:n], weights=rho.spectrum[:n])


@_public
def validate_ensemble(e: RhoEnsemble, tol: float = DEFAULT_TOL) -> list[str]:
    """Check every ensemble invariant; return a report of violations.

    An empty list means the ensemble is valid at the given tolerances.
    Violations are data, not errors: each entry names the failed invariant
    and the offending element indices, pairs in row-major ``(i, j)`` order.
    The lines for the weight sum and the norms come first: they are the
    theorem's hypotheses, the one precondition the constructions raise
    InvalidEnsemble on. The collinear pairs follow; they are reported, never
    refused. Order >= support rank is not checked: n projectors sum to rank
    at most n.

    A pair (i, j) is collinear when its density ``p_i P_i + p_j P_j``, with
    ``P = |phi><phi|``, has rank 1 at ``c = DEFAULT_RANK_TOL``: its smaller
    eigenvalue is at most c. For unit kets that is exactly
    ``|<phi_i|phi_j>| >= r_i r_j`` with ``r = sqrt(1 - c / max(p, c))``.
    """
    report = _unmet_hypotheses(e, tol)
    c = DEFAULT_RANK_TOL
    overlaps = np.abs(gram_matrix(e.kets))
    r = np.sqrt(1.0 - c / np.maximum(e.weights, c))
    # A diagonal entry pairs a ket with itself; only entries above it are pairs.
    for i, j in np.argwhere(np.triu(overlaps >= np.outer(r, r), 1)):
        overlap = float(overlaps[i, j])
        report.append(f"elements ({i}, {j}) are collinear (|overlap| = {overlap!r})")
    return report


@_public
def is_linearly_independent(e: RhoEnsemble, rank_tol: float = DEFAULT_RANK_TOL) -> bool:
    """True iff every squared singular value of the kets is above ``rank_tol``,
    the scale of every rank cutoff; NumericalFailure if the SVD fails."""
    singular_values = _svd(e.kets, compute_uv=False)
    return int(np.count_nonzero(singular_values**2 > rank_tol)) == e.order


@_public
def ensembles_equal(a: RhoEnsemble, b: RhoEnsemble, tol: float = 1e-8) -> bool:
    """Equality up to element permutation and per-element phase.

    True iff the elements pair up one-to-one with weights within ``tol`` and
    fidelity ``|<phi|psi>| >= 1 - tol`` in every pair: an exact bipartite
    matching over those pairs, grown along breadth-first augmenting paths.
    """
    if a.order != b.order or a.dim != b.dim:
        return False
    same_weight = np.abs(a.weights[:, None] - b.weights[None, :]) <= tol
    admissible = same_weight & (np.abs(np.conj(a.kets) @ b.kets.T) >= 1.0 - tol)
    partner_of_a, partner_of_b = np.full(a.order, -1), np.full(b.order, -1)
    for start in range(a.order):
        reached_from = np.full(b.order, -1)  # the a element each b was reached from
        queue, free = [start], -1
        while queue and free < 0:
            i = queue.pop(0)
            for j in np.flatnonzero(admissible[i] & (reached_from < 0)):
                reached_from[j] = i
                if partner_of_b[j] < 0:
                    free = j
                    break
                queue.append(partner_of_b[j])
        if free < 0:
            return False
        while free >= 0:  # flip the path: each a element on it takes its new b
            i = reached_from[free]
            partner_of_b[free], partner_of_a[i], free = i, free, partner_of_a[i]
    return True


@_public
def densities_match(a: RhoEnsemble, b: RhoEnsemble, tol: float = DEFAULT_TOL) -> bool:
    """True iff both ensembles sum to the same matrix within ``tol`` (max norm)."""
    if a.dim != b.dim:
        return False
    return max_abs(
        _weighted_projector_sum(a.kets, a.weights)
        - _weighted_projector_sum(b.kets, b.weights)
    ) <= tol
