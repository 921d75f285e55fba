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
    JointState,
    _at_unit_norm,
    _check_integer,
    _checked,
    _convert,
    _public,
    _state,
    as_operator,
    dagger,
)
from .purification import _trusted, ensemble_from_basis

_INT64_MAX = 2**63 - 1  # multinomial counts are 64-bit integers


@dataclass(frozen=True, eq=False)
class SteeringReport:
    """Shot counts against the exact outcome distribution of one basis choice;
    ``steer``'s ``expected_weights`` sum to 1 and its ``post_density`` has trace 1.

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
    its ancilla kets, whose weights sum to 1 -- together with the post-measurement
    joint density, the unit-trace state of the pairs ``sqrt(w_j) phi_j (x) b_j``.
    Tracing the ancilla out of it returns the reduced system state of the pure
    joint ket: the measurement does not disturb the system side. The basis is
    admitted as ``ensemble_from_basis`` admits it.
    """
    ensemble, ancilla, _ = ensemble_from_basis(joint, basis, rank_tol)
    mixture = list(zip(ensemble.weights.tolist(), ensemble.kets, ancilla.kets))
    amplitudes = np.sqrt(ensemble.weights)[:, None] * ensemble.kets
    pairs = (amplitudes[:, :, None] * ancilla.kets[:, None, :]).reshape(ensemble.order, -1).T
    _at_unit_norm(pairs, pairs)  # the factor, not the dim**4 product
    return mixture, pairs @ dagger(pairs)


@_public
def sample_outcomes(weights, shots: int, seed: int) -> np.ndarray:
    """Draw categorical outcome counts with a deterministic seeded generator.

    ``weights`` must be non-negative and are admitted at a sum of 1 (else
    WeightsNotNormalized); they are renormalized exactly before sampling. The
    counts are one multinomial draw, so memory is O(outcomes) whatever
    ``shots`` is; ``shots`` must fit in a 64-bit integer. Identical (weights, shots, seed)
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
    shots = _check_integer("shots", shots, 1, _INT64_MAX)
    seed = _check_integer("seed", seed, 0)
    return np.random.default_rng(seed).multinomial(shots, probs / total)


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
    post-measurement mixture, the unit-trace state of the conditioned
    ensemble's amplitudes, which coincides with the reduced state of the joint ket.
    The conditioned weights, ``expected_weights``, sum to 1 and are the outcome
    distribution ``sample_outcomes`` draws from; ``ensemble_from_basis`` admits
    the basis (else NotOrthonormalBasis).
    """
    ensemble, _, _ = ensemble_from_basis(joint, basis, rank_tol)
    counts = sample_outcomes(ensemble.weights, shots, seed)
    # sample_outcomes admitted shots and drew one non-negative count per
    # conditioned weight, summing to shots; those weights are positive and
    # finite, and their state is a finite square matrix.
    return _trusted(
        SteeringReport,
        shots=int(shots),
        counts=counts.tolist(),
        expected_weights=ensemble.weights,
        post_density=_state(ensemble.kets.T * np.sqrt(ensemble.weights)),
    )
