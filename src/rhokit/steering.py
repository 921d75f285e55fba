"""Ancilla-measurement simulation: mixtures, sampling, steering reports.

Measuring an observable whose eigenkets form an ancilla-side basis turns the
pure joint state into the classically correlated mixture of (system ket,
ancilla ket) pairs weighted by the basis-conditioned ensemble weights. Which
decomposition becomes visible is chosen by the basis; the reduced system
state is untouched by that choice, and each element is realized with
probability equal to its weight -- never with certainty unless the ensemble
is a singleton.

Sampling is pinned to NumPy's PCG64 generator seeded with a caller-supplied
integer, so counts are reproducible bit-for-bit. Parallel callers must split
streams via ``numpy.random.SeedSequence(seed).spawn(...)`` (or distinct
seeds) rather than sharing a generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, WeightsNotNormalized
from .linalg import (
    DEFAULT_RANK_TOL,
    _CONSTRUCT_TOL,
    _check_integer,
    _checked,
    _convert,
    _public,
    as_operator,
)
from .purification import JointState, _trusted, ensemble_from_basis

_INT64_MAX = 2**63 - 1  # multinomial counts are 64-bit integers


def _weighted_projector_sum(kets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_j w_j |k_j><k_j|`` of a realized mixture, its sum kept as given."""
    return kets.T @ (weights[:, None] * np.conj(kets))


@dataclass(frozen=True, eq=False)
class SteeringReport:
    """Shot counts against the exact outcome distribution of one basis choice.

    Construction holds the report's rules: ``shots`` is an integer >= 1
    (InvalidArgument), ``counts`` are non-negative integers, bools refused,
    summing to ``shots`` (InvalidArgument), ``expected_weights`` holds one
    finite non-negative weight per count (DimensionMismatch for the count,
    InvalidArgument for the values), and ``post_density`` is a finite square
    matrix (DimensionMismatch, InvalidArgument). The fields are stored as an
    int, a list of ints, a float array and a complex array.
    """

    shots: int
    counts: list[int]
    expected_weights: np.ndarray
    post_density: np.ndarray

    @_public
    def __post_init__(self):
        shots = _check_integer("shots", self.shots, 1)
        try:
            items = enumerate(self.counts)
        except TypeError as exc:  # not iterable
            raise InvalidArgument(f"counts must be integers, got {self.counts!r}") from exc
        counts = [_check_integer(f"counts[{i}]", c, 0) for i, c in items]
        if sum(counts) != shots:
            raise InvalidArgument(f"counts sum to {sum(counts)}, but shots is {shots}")
        weights = _convert(self.expected_weights, float)
        _checked(weights, 1, "weight vector", empty=True)
        if weights.shape[0] != len(counts):
            raise DimensionMismatch(f"{len(counts)} counts but {weights.shape[0]} weights")
        if np.any(weights < 0.0):
            raise InvalidArgument("expected weights must be non-negative")
        post_density = as_operator(self.post_density)
        if post_density.shape[0] != post_density.shape[1]:
            raise DimensionMismatch(f"post_density has shape {post_density.shape}, not square")
        object.__setattr__(self, "shots", shots)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "expected_weights", weights)
        object.__setattr__(self, "post_density", post_density)


@_public
def measure_ancilla(
    joint: JointState,
    basis,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> tuple[list[tuple[float, np.ndarray, np.ndarray]], np.ndarray]:
    """Mixture produced by measuring the ancilla in the given basis.

    Returns the list of ``(weight, system ket, ancilla ket)`` outcomes --
    exactly the basis-conditioned decomposition of the joint ket paired with
    its ancilla kets -- together with the post-measurement joint density
    matrix ``sum_j w_j |phi_j b_j><phi_j b_j|``. Tracing the ancilla out of
    that matrix returns the same reduced system state as the pure joint ket:
    the measurement does not disturb the system side. The basis is admitted
    as ``ensemble_from_basis`` admits it, within 1e-8 of orthonormal.
    """
    ensemble, ancilla, _ = ensemble_from_basis(joint, basis, rank_tol)
    mixture = list(zip(ensemble.weights.tolist(), ensemble.kets, ancilla.kets))
    pairs = (ensemble.kets[:, :, None] * ancilla.kets[:, None, :]).reshape(ensemble.order, -1)
    return mixture, _weighted_projector_sum(pairs, ensemble.weights)


@_public
def sample_outcomes(weights, shots: int, seed: int) -> np.ndarray:
    """Draw categorical outcome counts with a deterministic seeded generator.

    ``weights`` must sum to 1 within 1e-8 (else WeightsNotNormalized);
    they are renormalized exactly before sampling. The counts are one
    multinomial draw, so memory is O(outcomes) whatever ``shots`` is;
    ``shots`` must fit in a 64-bit integer. Identical (weights, shots, seed)
    triples give identical counts on every platform because the generator
    algorithm (PCG64) and the seeding path are fixed.
    """
    probs = _convert(weights, float)
    if probs.ndim != 1 or probs.size == 0:
        raise WeightsNotNormalized("weights must be a non-empty 1-D list")
    if np.fmin.reduce(probs) < 0.0:  # no temporary; NaN is left to the sum check
        raise WeightsNotNormalized("weights must be non-negative")
    total = float(probs.sum())
    if not abs(total - 1.0) <= _CONSTRUCT_TOL:  # a NaN total fails too
        raise WeightsNotNormalized(
            f"weights sum to {total!r}, expected 1 (tol {_CONSTRUCT_TOL:.3e})"
        )
    return _multinomial(probs, shots, seed)


def _multinomial(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """One seeded multinomial draw of ``shots`` over non-negative ``probs``."""
    shots = _check_integer("shots", shots, 1, _INT64_MAX)
    seed = _check_integer("seed", seed, 0)
    return np.random.default_rng(seed).multinomial(shots, probs / float(probs.sum()))


@_public
def steer(
    joint: JointState,
    basis,
    shots: int,
    seed: int,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> SteeringReport:
    """Measure the ancilla, sample outcomes, and report the statistics.

    ``post_density`` is the system-side state of the exact (non-sampled)
    post-measurement mixture, i.e. the weighted projector sum over realized
    system kets, which coincides with the reduced state of the joint ket.
    The conditioned weights are the outcome distribution, so they are
    sampled as ``ensemble_from_basis`` admitted them, without a second check;
    it admits the basis within 1e-8 of orthonormal, else NotOrthonormalBasis.
    """
    ensemble, _, _ = ensemble_from_basis(joint, basis, rank_tol)
    counts = _multinomial(ensemble.weights, shots, seed)
    # _multinomial admitted shots and drew one non-negative count per
    # conditioned weight, summing to shots; those weights are positive and
    # finite, and their projector sum is a finite square matrix.
    return _trusted(
        SteeringReport,
        shots=int(shots),
        counts=counts.tolist(),
        expected_weights=ensemble.weights,
        post_density=_weighted_projector_sum(ensemble.kets, ensemble.weights),
    )
