"""Weighted-ket decompositions of density matrices and their validation.

A decomposition is a finite list of (normalized ket, positive weight) pairs
whose weighted projector sum reproduces a density matrix. This docstring is
the reference for the theorem's hypotheses, collinearity and the judge of a
density; the thresholds they are read at are ``rhokit.linalg``'s.

Hypotheses. What is built from an ensemble (``ensemble_to_density``,
``purify``, ``match_purification``, ``umap_between``) requires only the
Schrödinger-HJW theorem's hypotheses: weights that sum to 1 within ``order``
times the admission, and kets of unit norm within the admission. Each raises
InvalidEnsemble on those alone, carrying their report lines, and no ``tol``
moves them; ``validate_ensemble`` reports the same two lines at ``tol``. The
weights are positive by construction, so no reporter checks their sign.
``_amplitude_block`` is this one precondition: it checks the hypotheses, then
the order against the ancilla dimension (OrderExceedsAncillaDim), before
anything is allocated.

Reported, not refused. ``RhoEnsemble`` refuses only shape errors, an ensemble
with no elements and weights that are not positive and finite. Everything
else is *reported* by ``validate_ensemble``, so that invalid data can be
inspected. Validation reads no rank: n projectors sum to rank at most n, so
an ensemble's order never falls below its density's rank, and the functions
that only validate take no ``rank_tol``.

Collinearity. Two elements are collinear when their pair density
``p_i P_i + p_j P_j``, with ``P = |phi><phi|``, has rank 1 at
``c = DEFAULT_RANK_TOL``: its smaller eigenvalue is at most ``c``. For unit
kets that is exactly ``|<phi_i|phi_j>| >= r_i r_j`` with
``r = sqrt(1 - c / max(p, c))``, so the overlap that counts depends on the
weights: two elements of weight 1/2 overlapping by ``1 - 2 eps`` are distinct
for any ``eps`` above ``c``, while an element of weight at most ``c`` is
collinear with every other one. The theorem holds for repeated kets, so
collinearity is reported, never refused: an ensemble that
``ensemble_from_basis`` returns is taken by every construction, even where
``validate_ensemble`` reports two of its elements as collinear. No
construction forms an order x order Gram matrix.

Densities. ``DensityMatrix`` is the one judge of a density (its docstring
states the rules), and ``eigen_ensemble`` cuts its spectrum into an ensemble.
An ensemble's state is its density over its trace, ``_state`` of its
amplitudes: the record ``ensemble_to_density`` builds, the reduced state of
its ``purify``, and what ``densities_match``, the gates of the constructions
and ``rhokit verify --ensemble E --rho R`` compare, so
``R = ensemble_to_density(E).matrix`` verifies clean. Kets that are all zero
have no state: they match no ensemble, and ``verify --rho`` reports them as
missing R by ``inf``. Kept as given is only what measures normalization
itself: ``validate_ensemble``'s weight-sum and norm lines, and
``rhokit verify --joint``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, InvalidEnsemble, OrderExceedsAncillaDim
from .linalg import (
    DEFAULT_RANK_TOL,
    DEFAULT_TOL,
    _CONSTRUCT_TOL,
    _admit_hermitian,
    _convert,
    _kept_rank,
    _public,
    _state,
    _svd,
    as_ket_list,
    eig_hermitian,
    gram_matrix,
    max_abs,
)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A density matrix and the eigendata derived from it.

    ``DensityMatrix(matrix)`` takes one value and judges it at the admission,
    in this order: a finite square matrix (else InvalidArgument or
    DimensionMismatch), Hermitian (else NotHermitian), with no eigenvalue
    below minus the admission and a trace within ``n`` times the admission of
    1 (else InvalidArgument). So ``DensityMatrix(5 * np.eye(2))`` and
    ``DensityMatrix(np.diag([0.7, 0.5, -0.2]))`` are refused, and a matrix
    further off Hermitian than the admission is symmetrized by its caller
    first. It stores the Hermitian part ``(m + m^dag) / 2`` and decomposes it
    with one ``eig_hermitian`` call: ``spectrum`` is sorted descending and
    ``eigenkets`` holds the matching orthonormal eigenvectors as rows. So
    ``dataclasses.replace(rho, matrix=m)`` judges and derives them again,
    ``dataclasses.replace`` refuses a ``spectrum`` or ``eigenkets``
    (ValueError), and no record disagrees with its matrix. ``dim`` is read
    from ``matrix``.
    """

    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False)
    eigenkets: np.ndarray = field(init=False)

    @_public
    def __post_init__(self):
        matrix = _admit_hermitian(self.matrix)
        spectrum, eigenkets = eig_hermitian(matrix)
        if spectrum[-1] < -_CONSTRUCT_TOL:
            raise InvalidArgument(
                f"matrix has negative eigenvalue {float(spectrum[-1])!r}"
                f" (tol {_CONSTRUCT_TOL:.3e})"
            )
        trace = float(np.sum(spectrum))
        if abs(trace - 1.0) > _CONSTRUCT_TOL * len(spectrum):
            raise InvalidArgument(f"matrix has trace {trace!r}, expected 1")
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


def _amplitudes(e: RhoEnsemble, count: int) -> np.ndarray:
    """(dim, count) matrix of ``sum_j sqrt(w_j) phi_j (x) e_j``, zero past the order,
    with no hypothesis checked. Its ``_state`` is the ensemble's unit-trace state;
    zero padding moves the last bits, so compared states are padded alike."""
    rows = np.zeros((count, e.dim), dtype=complex)
    np.multiply(np.sqrt(e.weights)[:, None], e.kets, out=rows[: e.order])
    return rows.T


def _amplitude_block(e: RhoEnsemble, dim_m: int) -> np.ndarray:
    """``_amplitudes(e, dim_m)`` behind the one precondition of every construction
    that takes an ensemble: the theorem's hypotheses at the admission (else
    InvalidEnsemble, carrying the report), then at most ``dim_m`` elements (else
    OrderExceedsAncillaDim)."""
    report = _unmet_hypotheses(e, _CONSTRUCT_TOL)
    if report:
        raise InvalidEnsemble(report)
    if e.order > dim_m:
        raise OrderExceedsAncillaDim(f"ensemble order {e.order} exceeds ancilla dimension {dim_m}")
    return _amplitudes(e, dim_m)


@_public
def ensemble_to_density(e: RhoEnsemble) -> DensityMatrix:
    """The density matrix of an ensemble over its trace, the density itself for a
    weight sum of 1: the reduced state of its ``purify``.

    Raises InvalidEnsemble (carrying the violation report) unless the
    theorem's hypotheses hold; collinear elements are summed like any others.
    """
    return DensityMatrix(_state(_amplitude_block(e, e.order)))


@_public
def eigen_ensemble(rho: DensityMatrix, rank_tol: float = DEFAULT_RANK_TOL) -> RhoEnsemble:
    """The spectral decomposition of a density matrix as an ensemble: the eigenkets
    whose eigenvalues lie above ``rank_tol`` (InvalidArgument if none does), weighted
    by those eigenvalues over their sum, so the weights sum to 1 whatever the cut and
    the record's admitted trace. The eigendata are the record's, taken as they are."""
    n = _kept_rank(rho.spectrum, rank_tol, "eigenvalue")
    return RhoEnsemble(kets=rho.eigenkets[:n], weights=rho.spectrum[:n] / rho.spectrum[:n].sum())


@_public
def validate_ensemble(e: RhoEnsemble, tol: float = DEFAULT_TOL) -> list[str]:
    """Check every ensemble invariant; return a report of violations.

    An empty list means the ensemble is valid at the given tolerances.
    Violations are data, not errors: each entry names the failed invariant
    and the offending element indices, pairs in row-major ``(i, j)`` order.
    The lines for the weight sum and the norms come first, at ``tol``: they
    are the theorem's hypotheses, which the constructions admit and raise
    InvalidEnsemble on. The collinear pairs follow, by the module docstring's
    definition; they are reported, never refused. No rank is read.
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
def ensembles_equal(a: RhoEnsemble, b: RhoEnsemble, tol: float = DEFAULT_TOL) -> bool:
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
    """True iff the ensembles' densities over their traces agree within ``tol``
    (max norm): for admitted ensembles of one dimension, exactly when
    ``umap_between(a, b, tol)`` raises no DensitiesDiffer. False for different
    dimensions, and for kets with no such state in float range (all zero, say)."""
    if a.dim != b.dim:
        return False
    count = max(a.order, b.order)  # umap_between's padding, and so its bits
    with np.errstate(all="ignore"):  # a state out of float range is NaN: never a match
        return max_abs(_state(_amplitudes(a, count)) - _state(_amplitudes(b, count))) <= tol
