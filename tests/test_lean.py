"""A basis admitted off orthonormal still conditions a normalized ensemble.

A basis is admitted within 1e-8 of orthonormal. Each case leans ket 1 of a
random unitary basis on ket 0 by a lean of random phase: none, up to 1e-9, or
just under 1e-8. Conditioning a random ``dim x dim`` joint ket on that basis
gives weights that sum to 1 only as far as the basis is orthonormal, and every
cut returns them over their own total. So ``ensemble_from_basis``'s weights,
``steer``'s ``expected_weights`` and ``measure_ancilla``'s mixture sum to 1
within ``n * eps``, ``n = dim``, and ``post_density`` has trace 1 as closely;
``validate_ensemble`` reports no weight sum or norm, and ``purify`` takes the
ensemble. Over draws 0 to 1999 the largest of these misses was 0.375
``n * eps``.
"""

import numpy as np
import pytest

from rhokit import ensemble_from_basis, measure_ancilla, purify, steer, validate_ensemble
from rhokit.linalg import orthonormality_deviation
from helpers import pick, random_joint, random_unitary

LEAN_CASES = 40
LEAN_DIMS = [4, 16, 48, 96]
LEANS = ["none", "small", "edge"]
# measure_ancilla also builds the (dim**2)**2 post-measurement matrix: 1 MB at
# dim 16, 1.4 GB at dim 96.
MEASURE_DIMS = [4, 16]
EPS = np.finfo(float).eps


def draw(case):
    """Lean case ``case``: a seed, a dimension and the kind of lean, from one
    generator seeded by ``case``."""
    rng = np.random.default_rng(case)
    return int(rng.integers(2**32)), pick(rng, LEAN_DIMS), pick(rng, LEANS)


def leaning(seed, dim, lean):
    """The drawn joint ket and its basis, ket 1 leaning on ket 0."""
    rng = np.random.default_rng(seed)
    joint = random_joint(rng, dim, dim)
    basis = random_unitary(rng, dim)
    size = {"none": 0.0, "small": 1e-9 * rng.random(), "edge": 0.999e-8}[lean]
    basis[1] += size * np.exp(2j * np.pi * rng.random()) * basis[0]
    return joint, basis


@pytest.mark.parametrize("case", range(LEAN_CASES))
def test_a_leaning_basis_conditions_a_normalized_ensemble(case):
    drawn = draw(case)
    _, dim, _ = drawn
    joint, basis = leaning(*drawn)
    assert orthonormality_deviation(basis) <= 1e-8, drawn
    bound = dim * EPS
    ensemble, _, _ = ensemble_from_basis(joint, basis)
    assert abs(ensemble.weights.sum() - 1.0) <= bound, drawn
    report = validate_ensemble(ensemble)
    assert [line for line in report if "weights sum" in line or "norm" in line] == [], drawn
    purify(ensemble, ensemble.order)
    steered = steer(joint, basis, 100, case)
    assert abs(steered.expected_weights.sum() - 1.0) <= bound, drawn
    assert abs(np.trace(steered.post_density) - 1.0) <= bound, drawn
    if dim in MEASURE_DIMS:
        mixture, _ = measure_ancilla(joint, basis)
        assert abs(sum(weight for weight, _, _ in mixture) - 1.0) <= bound, drawn


def test_lean_cases_reach_every_category():
    cases = [draw(n) for n in range(LEAN_CASES)]
    assert {dim for _, dim, _ in cases} == set(LEAN_DIMS)
    assert {lean for *_, lean in cases} == set(LEANS)
    # The edge lean at both measured dimensions and at the largest one.
    assert {dim for _, dim, lean in cases if lean == "edge"} >= {4, 16, 96}
