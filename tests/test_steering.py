"""Ancilla measurement, seeded sampling, and steering reports."""

import re

import numpy as np
import pytest

from rhokit import (
    DimensionMismatch,
    InvalidArgument,
    JointState,
    SteeringReport,
    WeightsNotNormalized,
    ensemble_from_basis,
    measure_ancilla,
    partial_trace_m,
    purify,
    sample_outcomes,
    steer,
    tensor_ket,
    validate_ensemble,
)
from helpers import (
    bell_joint,
    bits,
    computational,
    minus_ket,
    plus_ket,
    random_basis,
    random_joint,
    random_ket,
)


# ---------------------------------------------------------------------------
# measure_ancilla


def test_measure_bell_computational():
    mixture, post = measure_ancilla(bell_joint(), np.eye(2, dtype=complex))
    assert len(mixture) == 2
    for (weight, s_ket, m_ket), index in zip(mixture, range(2)):
        assert weight == pytest.approx(0.5, abs=1e-12)
        assert abs(np.vdot(s_ket, computational(2, index))) > 1 - 1e-12
        np.testing.assert_array_equal(m_ket, computational(2, index))
    off_diagonal = post - np.diag(np.diag(post))
    assert np.max(np.abs(off_diagonal)) < 1e-12


def test_measure_bell_plus_minus_leaves_marginal():
    joint = bell_joint()
    mixture, post = measure_ancilla(joint, [plus_ket(), minus_ket()])
    kets = [m for _, m, _ in mixture]
    assert len(kets) == 2
    reduced = partial_trace_m(post, 2, 2)
    np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-12)


def test_measure_product_joint_single_outcome():
    rng = np.random.default_rng(30)
    psi = random_ket(rng, 2)
    joint = JointState(dim_s=2, dim_m=2, vec=tensor_ket(psi, computational(2, 0)))
    mixture, post = measure_ancilla(joint, np.eye(2, dtype=complex))
    assert len(mixture) == 1
    assert mixture[0][0] == pytest.approx(1.0, abs=1e-12)
    pure = np.outer(joint.vec, np.conj(joint.vec))
    np.testing.assert_allclose(post, pure, atol=1e-12)


def test_no_disturbance_random():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        dim_s = int(rng.integers(2, 5))
        dim_m = int(rng.integers(2, 5))
        joint = random_joint(rng, dim_s, dim_m)
        _, post = measure_ancilla(joint, random_basis(rng, dim_m))
        before = joint.reduced_system()
        after = partial_trace_m(post, dim_s, dim_m)
        assert np.max(np.abs(after - before)) < 1e-9


def test_mixture_is_exactly_the_basis_ensemble():
    rng = np.random.default_rng(31)
    joint = random_joint(rng, 3, 3)
    basis = random_basis(rng, 3)
    mixture, _ = measure_ancilla(joint, basis)
    ensemble, ancilla, _ = ensemble_from_basis(joint, basis)
    assert len(mixture) == ensemble.order
    for (weight, s_ket, m_ket), (ket, w), b in zip(
        mixture, ensemble.elements(), ancilla.kets
    ):
        assert type(weight) is float and weight == float(w)
        np.testing.assert_array_equal(s_ket, ket)
        np.testing.assert_array_equal(m_ket, b)


def test_element_probability_equals_weight_never_one_unless_singleton():
    rng = np.random.default_rng(32)
    joint = random_joint(rng, 2, 3)
    mixture, _ = measure_ancilla(joint, random_basis(rng, 3))
    weights = [w for w, _, _ in mixture]
    assert abs(sum(weights) - 1.0) < 1e-10
    if len(weights) > 1:
        assert all(0.0 < w < 1.0 for w in weights)


# ---------------------------------------------------------------------------
# sample_outcomes


def test_sample_single_outcome():
    counts = sample_outcomes([1.0], shots=100, seed=1)
    np.testing.assert_array_equal(counts, [100])


def test_sample_fair_split_within_four_sigma():
    counts = sample_outcomes([0.5, 0.5], shots=10000, seed=7)
    sigma = np.sqrt(10000 * 0.25)
    assert sum(counts) == 10000
    assert abs(counts[0] - 5000) <= 4 * sigma


def test_sample_skewed_split_within_four_sigma():
    counts = sample_outcomes([0.1, 0.9], shots=10000, seed=7)
    sigma = np.sqrt(10000 * 0.09)
    assert abs(counts[0] - 1000) <= 4 * sigma


def test_sample_deterministic_given_seed():
    first = sample_outcomes([0.3, 0.7], shots=500, seed=42)
    second = sample_outcomes([0.3, 0.7], shots=500, seed=42)
    np.testing.assert_array_equal(first, second)


def test_sample_distinct_seeds_distinct_streams():
    first = sample_outcomes([0.5, 0.5], shots=10000, seed=0)
    second = sample_outcomes([0.5, 0.5], shots=10000, seed=1)
    assert not np.array_equal(first, second)


def test_sample_rejects_unnormalized_weights():
    with pytest.raises(WeightsNotNormalized):
        sample_outcomes([0.5, 0.6], shots=10, seed=0)


def test_sample_rejects_negative_weights():
    with pytest.raises(WeightsNotNormalized):
        sample_outcomes([1.5, -0.5], shots=10, seed=0)


@pytest.mark.parametrize("weights", [[float("nan")], [0.5, float("nan")]])
def test_sample_rejects_nan_weights_with_typed_error(weights):
    with pytest.raises(WeightsNotNormalized):
        sample_outcomes(weights, shots=5, seed=0)


@pytest.mark.parametrize(
    "weights, message",
    [
        ([float("nan"), 0.5], "weights sum to nan"),
        ([1.5, -0.5], "weights must be non-negative"),
        ([], "non-empty 1-D"),
        ([[0.5, 0.5]], "non-empty 1-D"),
        ([0.5, 0.6], "weights sum to 1.1"),
    ],
    ids=["nan", "negative", "empty", "2-D", "unnormalized"],
)
def test_sample_rejects_each_bad_weight_vector_with_its_message(weights, message):
    with pytest.raises(WeightsNotNormalized, match=message):
        sample_outcomes(weights, shots=5, seed=0)


def test_sample_rejects_zero_shots():
    with pytest.raises(ValueError):
        sample_outcomes([1.0], shots=0, seed=0)
    with pytest.raises(InvalidArgument):
        sample_outcomes([1.0], shots=10**20, seed=0)


def test_sample_huge_shots_sum_exactly():
    shots = 10**15
    counts = sample_outcomes([0.2, 0.3, 0.5], shots=shots, seed=4)
    assert int(np.sum(counts)) == shots
    assert np.max(np.abs(counts / shots - [0.2, 0.3, 0.5])) < 1e-6
    np.testing.assert_array_equal(
        counts, sample_outcomes([0.2, 0.3, 0.5], shots=shots, seed=4)
    )


@pytest.mark.parametrize(
    "shots, seed, name",
    [(10.5, 1, "shots"), (True, 1, "shots"), (10, 1.5, "seed"), (10, "3", "seed")],
)
def test_steer_rejects_non_integer_shots_and_seed(shots, seed, name):
    # 10.5 shots used to be truncated to 10 draws and reported as 10.
    with pytest.raises(InvalidArgument, match=f"^{name} must be an integer"):
        steer(bell_joint(), np.eye(2, dtype=complex), shots, seed)


# ---------------------------------------------------------------------------
# steer


def test_steer_single_shot():
    report = steer(bell_joint(), np.eye(2, dtype=complex), shots=1, seed=5)
    assert report.shots == 1
    assert sorted(report.counts) == [0, 1]


def test_steer_fair_frequencies():
    report = steer(bell_joint(), [plus_ket(), minus_ket()], shots=10000, seed=11)
    sigma = np.sqrt(10000 * 0.25)
    assert abs(report.counts[0] - 5000) <= 4 * sigma
    np.testing.assert_allclose(report.expected_weights, [0.5, 0.5], atol=1e-12)


def test_steer_skewed_frequencies_via_purification():
    from rhokit import RhoEnsemble, purify

    e = RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[0.9, 0.1])
    joint, _ = purify(e, 2)
    report = steer(joint, np.eye(2, dtype=complex), shots=10000, seed=13)
    sigma = np.sqrt(10000 * 0.09)
    assert abs(report.counts[0] - 9000) <= 4 * sigma
    assert abs(report.counts[1] - 1000) <= 4 * sigma


def admitted_weights_cases():
    skewed_basis = np.eye(3) + 0.49e-8 * (np.ones((3, 3)) - np.eye(3))
    uniform = np.ones(3, dtype=complex) / np.sqrt(3)
    long_joint = computational(4, 0) * (1 + 0.9e-8)
    tail = np.sqrt(5e-7)
    tail_joint = np.sqrt(1 - tail**2) * computational(4, 0) + tail * computational(4, 3)
    return {
        # Basis deviation 9.8e-9 <= 1e-8: the conditional weights sum to
        # 1 + 1.96e-8 and are returned over that total, so they sum to 1.
        "skewed_basis": (
            JointState(dim_s=3, dim_m=3, vec=tensor_ket(computational(3, 0), uniform)),
            skewed_basis,
            {},
        ),
        # The JointState check admits the norm; conditioning normalizes the
        # joint, so the weights sum to 1.
        "joint_norm": (
            JointState(dim_s=2, dim_m=2, vec=long_joint),
            np.eye(2, dtype=complex),
            {},
        ),
        # The 5e-7 weight is dropped at rank_tol 1e-6: the rest is returned over
        # its total, 1 - 5e-7, so it sums to 1.
        "dropped_weight": (
            JointState(dim_s=2, dim_m=2, vec=tail_joint),
            np.eye(2, dtype=complex),
            {"rank_tol": 1e-6},
        ),
    }


@pytest.mark.parametrize("case", sorted(admitted_weights_cases()))
def test_steer_samples_every_ensemble_its_checks_admit(case):
    joint, basis, tolerances = admitted_weights_cases()[case]
    ensemble, _, _ = ensemble_from_basis(joint, basis, **tolerances)
    report = steer(joint, basis, 1000, 3, **tolerances)
    assert sum(report.counts) == 1000
    assert len(report.counts) == ensemble.order
    assert bits(report.expected_weights) == bits(ensemble.weights)
    assert [line for line in validate_ensemble(ensemble) if "collinear" not in line] == []
    purify(ensemble, ensemble.order)
    bound = max(joint.dim_s, joint.dim_m) * np.finfo(float).eps
    assert abs(report.expected_weights.sum() - 1.0) <= bound
    assert abs(np.trace(report.post_density) - 1.0) <= bound


@pytest.mark.parametrize(
    "dim_s, dim_m, shots, seed",
    [(16, 16, 10**4, 7), (4, 4, 10**6, 8), (3, 5, 1, 0), (24, 24, 10**4, 2**40)],
)
def test_steer_counts_are_one_seeded_multinomial_draw(dim_s, dim_m, shots, seed):
    rng = np.random.default_rng(dim_s + dim_m)
    joint = random_joint(rng, dim_s, dim_m)
    report = steer(joint, random_basis(rng, dim_m), shots, seed)
    weights = report.expected_weights
    expected = np.random.default_rng(seed).multinomial(shots, weights / weights.sum())
    assert report.counts == expected.tolist()
    assert all(type(count) is int for count in report.counts)


def test_steer_post_density_equals_reduced_state():
    rng = np.random.default_rng(34)
    joint = random_joint(rng, 3, 2)
    report = steer(joint, random_basis(rng, 2), shots=10, seed=3)
    assert np.max(np.abs(report.post_density - joint.reduced_system())) < 1e-9


# ---------------------------------------------------------------------------
# SteeringReport

REPORT = {
    "shots": 100,
    "counts": [38, 62],
    "expected_weights": [0.5, 0.5],
    "post_density": np.eye(2) / 2,
}


@pytest.mark.parametrize(
    "field, value, error, message",
    [
        ("counts", [1, 2], InvalidArgument, "counts sum to 3, but shots is 100"),
        ("expected_weights", [-3.0, 7.0], InvalidArgument, "expected weights must be non-negative"),
        ("counts", [101, -1], InvalidArgument, "counts[1] must be an integer >= 0, got -1"),
        ("expected_weights", [1.0], DimensionMismatch, "2 counts but 1 weights"),
        ("shots", 0, InvalidArgument, "shots must be an integer >= 1, got 0"),
        (
            "post_density", np.ones((1, 3)), DimensionMismatch,
            "post_density has shape (1, 3), not square",
        ),
        ("counts", [38, True], InvalidArgument, "counts[1] must be an integer >= 0, got True"),
        (
            "expected_weights", [0.5, np.inf], InvalidArgument,
            "weight vector contains non-finite entries",
        ),
    ],
    ids=[
        "sum", "negative_weight", "negative_count", "weight_count", "shots", "square",
        "bool_count", "infinite_weight",
    ],
)
def test_report_refuses_each_broken_rule_with_its_message(field, value, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        SteeringReport(**{**REPORT, field: value})
    assert type(info.value) is error


def test_report_stores_an_int_a_list_of_ints_a_float_array_and_a_complex_array():
    report = SteeringReport(
        np.int64(100), np.array([38, 62]), [1, 0], [[0.5, 0], [0, 0.5]]
    )
    assert type(report.shots) is int and report.shots == 100
    assert report.counts == [38, 62] and all(type(c) is int for c in report.counts)
    assert report.expected_weights.dtype == float
    assert report.post_density.dtype == complex


def test_measure_ancilla_mixture_packages_outcome():
    # Outcome 1 of the mixture pairs the system ket it steers to with its ancilla ket.
    mixture, _ = measure_ancilla(bell_joint(), np.eye(2, dtype=complex))
    _, s_ket, m_ket = mixture[1]
    np.testing.assert_allclose(s_ket, computational(2, 1), atol=1e-12)
    np.testing.assert_array_equal(m_ket, computational(2, 1))
