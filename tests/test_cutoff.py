"""What the one rank cutoff keeps is returned over its total, so it sums to 1.

Each case builds a joint ket on ``dim x dim`` whose squared Schmidt
coefficients are ``kept`` random values and ``dim - kept`` dropped ones, and a
density record of the same spectrum whose trace is off 1 by ``offset * tol *
dim``, within what ``DensityMatrix`` admits. The dropped values are exact zeros,
or share a total just under ``tol * kept`` (a sum that ``validate_ensemble``
would admit unnormalized), or are ``0.99 * rank_tol`` each, up to ``dim *
rank_tol`` in all. Every ensemble cut from them must meet the theorem's
hypotheses, so that ``purify`` takes it, and the squared Schmidt coefficients
and every outcome distribution must sum to 1 within ``n * eps``, ``n = dim``:
over draws 0 to 2999 the distributions missed 1 by at most 0.25 ``n * eps``.
"""

import numpy as np
import pytest

from rhokit import (
    DEFAULT_RANK_TOL,
    DEFAULT_TOL,
    DensityMatrix,
    JointState,
    apply_unitary_umap,
    eigen_ensemble,
    ensemble_containing,
    ensemble_from_basis,
    measure_ancilla,
    purify,
    schmidt_decompose,
    steer,
    validate_ensemble,
)
from helpers import pick, random_ket, random_unitary

CUT_CASES = 60
CUT_DIMS = [4, 16, 48, 96]
DROPS = ["zero", "under_tol", "full"]
TRACE_OFFSETS = [-0.9, 0.0, 0.9]
# measure_ancilla also builds the (dim**2)**2 post-measurement matrix: 1 MB at
# dim 16, 1.4 GB at dim 96.
MEASURE_DIMS = [4, 16]
EPS = np.finfo(float).eps


def draw(case):
    """Cut case ``case``: a seed, a dimension, a kept count from 1 to half the
    dimension, the kind of drop and the record's trace offset, from one
    generator seeded by ``case``."""
    rng = np.random.default_rng(case)
    seed, dim = int(rng.integers(2**32)), pick(rng, CUT_DIMS)
    kept = int(rng.integers(1, dim // 2 + 1))
    return seed, dim, kept, pick(rng, DROPS), pick(rng, TRACE_OFFSETS)


def cut(seed, dim, kept, drop, offset):
    """The drawn joint ket, a basis that conditions it onto its dropped values
    (the right Schmidt kets, the kept ones mixed), a unitary that mixes only
    the kept kets of that basis, a target in the kept support and the record."""
    rng = np.random.default_rng(seed)
    dropped = {
        "zero": 0.0,
        "under_tol": 0.99 * DEFAULT_TOL * kept / (dim - kept),
        "full": 0.99 * DEFAULT_RANK_TOL,
    }[drop]
    values = np.full(dim, dropped)
    values[:kept] = rng.random(kept) + 0.05
    values[:kept] *= (1.0 - dropped * (dim - kept)) / values[:kept].sum()
    left, right = random_unitary(rng, dim), random_unitary(rng, dim)
    joint = JointState(dim, dim, ((left * np.sqrt(values)) @ right).reshape(-1))
    basis = np.concatenate([random_unitary(rng, kept) @ right[:kept], right[kept:]])
    mixing = np.eye(dim, dtype=complex)
    mixing[:kept, :kept] = random_unitary(rng, kept)
    unitary = basis.T @ mixing @ basis.conj()  # u b_k = sum_l mixing[l, k] b_l
    target = left[:, :kept] @ random_ket(rng, kept)
    scaled = values * (1.0 + offset * DEFAULT_TOL * dim)
    record = DensityMatrix((left * scaled) @ left.conj().T)
    return joint, basis, unitary, target, record


def assert_meets_the_hypotheses(ensemble, drawn):
    report = [line for line in validate_ensemble(ensemble) if "collinear" not in line]
    assert report == [], drawn
    purify(ensemble, ensemble.order)


@pytest.mark.parametrize("case", range(CUT_CASES))
def test_every_cut_ensemble_meets_the_hypotheses(case):
    drawn = draw(case)
    joint, basis, unitary, target, record = cut(*drawn)
    kept = drawn[2]
    conditioned, _, members = ensemble_from_basis(joint, basis)
    assert members == list(range(kept)), drawn
    assert_meets_the_hypotheses(conditioned, drawn)
    rotated, _ = apply_unitary_umap(joint, basis, unitary)
    assert rotated.order == kept, drawn
    assert_meets_the_hypotheses(rotated, drawn)
    containing, _ = ensemble_containing(joint, target)
    assert containing.order == kept, drawn
    assert_meets_the_hypotheses(containing, drawn)
    spectral = eigen_ensemble(record)
    assert spectral.order == kept, drawn
    assert_meets_the_hypotheses(spectral, drawn)


@pytest.mark.parametrize("case", range(CUT_CASES))
def test_every_cut_distribution_sums_to_1(case):
    drawn = draw(case)
    joint, basis, _, _, _ = cut(*drawn)
    dim, kept = drawn[1], drawn[2]
    coefficients = schmidt_decompose(joint).coefficients
    assert len(coefficients) == kept, drawn
    assert abs(np.sum(coefficients**2) - 1.0) <= dim * EPS, drawn
    expected = steer(joint, basis, 100, case).expected_weights
    assert len(expected) == kept and abs(expected.sum() - 1.0) <= dim * EPS, drawn
    if dim in MEASURE_DIMS:
        mixture, _ = measure_ancilla(joint, basis)
        assert abs(sum(weight for weight, _, _ in mixture) - 1.0) <= dim * EPS, drawn


@pytest.mark.parametrize(
    "spectrum",
    [[1.0 - 2.7e-10, 0.9e-10, 0.9e-10, 0.9e-10], [1.0 + 7e-10] + [0.0] * 7],
    ids=["cut", "trace"],
)
def test_spectral_ensemble_of_a_cut_or_a_trace_slack_sums_to_1(spectrum):
    spectral = eigen_ensemble(DensityMatrix(np.diag(spectrum)))
    assert validate_ensemble(spectral) == []
    assert abs(spectral.weights.sum() - 1.0) <= len(spectrum) * EPS


def test_cut_cases_reach_every_category():
    cases = [draw(n) for n in range(CUT_CASES)]
    assert {dim for _, dim, *_ in cases} == set(CUT_DIMS)
    assert {drop for *_, drop, _ in cases} == set(DROPS)
    assert {offset for *_, offset in cases} == set(TRACE_OFFSETS)
    # A kept count of 1 and of half the dimension, the two ends of the draw.
    assert any(kept == 1 for _, _, kept, *_ in cases)
    assert any(2 * kept == dim for _, dim, kept, *_ in cases)
