"""Accuracy of the products the constructions form, each bounded by ``c * n * eps``
times the size of the entries it reproduces (README's clause table).

The chain: an ensemble of non-orthogonal kets whose smallest weight is
``10**exponent``, its ``purify`` on ``dim_m = order + extra``, and
``ensemble_from_basis`` of that joint in a random unitary basis. ``n`` is
``max(dim_s, dim_m)`` and eps the float64 machine epsilon. Over 10000 draws
of ``draw`` the worst residuals were, in units of ``n * eps`` times the
largest entry of what is reproduced (1 for a norm):

* ``purify``'s reduced state against the density over its trace: 0.91;
* ``ensemble_from_basis``'s reconstruction ``sum_k sqrt(w_k) phi_k (x) b_k``
  against the joint: 1.62;
* the norms of its kets against 1: 0.40.

Each constant keeps a margin of 4 above its worst, all at ``n = 4``. Scaling by
the entries keeps the large dimensions sensitive: at ``n = 96`` the worst
read 0.07, 0.08 and 0.04 of the same units. Two conditioned kets rotated into
each other by 1e-11 miss the reconstruction bound by a factor of 7 or more in
every case here (464 at ``n = 4``), and the norm bound in 78 of 80: the norm
moves with the real part of the two kets' overlap.

The outputs that must be orthonormal are bounded by ``c * n * eps`` alone (the
identity's entries are 1): ``match_purification``'s ancilla for the conditioned
ensemble inside the joint, ``umap_between``'s coefficient columns from the drawn
ensemble to the conditioned one, and ``ensemble_containing``'s basis for the
drawn ensemble's ket 1. Over draws 0 to 9999 the worst deviations of the Gram
matrix from the identity were 2.25, 3.50 and 2.00 ``n * eps``, all at ``n = 4``
(at ``n = 96``: 0.11, 0.16 and 0.20). A ket leaning 1e-11 toward another
misses each bound by 33 times or more, at every ``n`` here.

A map's coefficients are read from its generator. ``umap_between``'s are the
generator's first columns bit for bit, since its row basis is the identity.
``apply_unitary_umap``'s, for the joint in a random basis rotated by a random
unitary, are compared with the row kets' overlaps with the source ancilla
kets, the product they equal when the unitary and the basis are exact. Over
draws 0 to 9999 the worst difference was 1.77 ``n * eps``, at ``n = 4`` (at
``n = 96``: 0.05). A generator rotated by 1e-11 in one plane misses the bound
by 3.5 times or more, at every ``n`` here.

Clause 4's weight and clause 5's state. ``ensemble_containing``'s weight for a
support ket is ``1 / <xi|rho^+|xi>``, a sum over the inverse squared Schmidt
coefficients, so its error grows with the ratio of the largest coefficient to
the smallest, up to 0.3 to 1.4 times that ratio in ``n * eps`` units. Its cases
are joints of geometric Schmidt spectra down to ``3e-5`` of the largest
(``draw_schmidt``); over draws 0 to 9999 the worst relative error was 10140
``n * eps``, at ``n = 4`` and the full spread (at ``n = 96``: 281). ``WEIGHT_C``
keeps a margin of 4, and is below ``1e-9`` at every ``n`` here, so a weight off
by ``1e-9`` of itself misses it in every case. The system state of a
measurement, ``steer``'s ``post_density`` and ``measure_ancilla``'s density
traced over the ancilla (where it fits in memory, up to ``dim_s = 16``), is
compared with the joint's reduced state for the chain above in a random basis:
over draws 0 to 9999 the worst was 1.31 ``n * eps`` times its largest entry, at
``n = 4`` (at ``n = 96``: 0.07). One entry moved by ``1e-12`` misses
``NO_DISTURBANCE_C`` by 147 times or more.
"""

import numpy as np
import pytest

from rhokit import (
    RhoEnsemble,
    apply_unitary_umap,
    documents,
    ensemble_containing,
    ensemble_from_basis,
    match_purification,
    measure_ancilla,
    partial_trace_m,
    purify,
    steer,
    umap_between,
)
from helpers import (
    bits,
    pick,
    random_unitary,
    reconstruct_joint,
    schmidt_joint,
    weighted_projector_sum,
)

PURIFY_C = 4.0
RECONSTRUCTION_C = 6.5
NORM_C = 1.6
MATCH_C = 9.0
UMAP_C = 14.0
CONTAINING_C = 8.0
APPLY_C = 7.5
WEIGHT_C = 41000.0
NO_DISTURBANCE_C = 5.5
ACCURACY_CASES = 80
ACCURACY_DIMS = [4, 16, 48, 96]
SPREAD = float(np.log10(3e-5))  # the exponent of the smallest Schmidt coefficient drawn
EPS = np.finfo(float).eps


def draw(case):
    """Accuracy case ``case``: a seed, a dimension, an order from 2 to the
    dimension, the ancilla's extra dimensions (0 to 2) and the exponent of the
    smallest weight, at either end of [-9.9, -1.0] in one case of three, from
    one generator seeded by ``case``."""
    rng = np.random.default_rng(case)
    seed, dim = int(rng.integers(2**32)), pick(rng, ACCURACY_DIMS)
    order, extra = int(rng.integers(2, dim + 1)), int(rng.integers(3))
    exponent = pick(rng, [-9.9, -1.0, *rng.uniform(-9.9, -1.0, 4).tolist()])
    return seed, dim, order, extra, exponent


def chain(seed, dim, order, extra, exponent):
    """The drawn ensemble, its purification and that joint's ensemble and
    ancilla in a random unitary basis."""
    rng = np.random.default_rng(seed)
    kets = rng.normal(size=(order, dim)) + 1j * rng.normal(size=(order, dim))
    weights = rng.random(order) + 0.05
    weights *= (1.0 - 10.0**exponent) / weights[1:].sum()
    weights[0] = 10.0**exponent
    e = RhoEnsemble(kets / np.linalg.norm(kets, axis=1)[:, None], weights)
    joint, _ = purify(e, order + extra)
    conditioned, ancilla, members = ensemble_from_basis(joint, random_unitary(rng, order + extra))
    assert members == list(range(joint.dim_m))  # nothing dropped: the joint is whole
    return e, joint, conditioned, ancilla


@pytest.mark.parametrize("case", range(ACCURACY_CASES))
def test_purify_reduces_to_the_density_within_a_few_n_eps(case):
    drawn = draw(case)
    e, joint, _, _ = chain(*drawn)
    n = max(joint.dim_s, joint.dim_m)
    rho = weighted_projector_sum(e) / e.weights.sum()
    residual = np.max(np.abs(joint.reduced_system() - rho))
    assert residual <= PURIFY_C * n * EPS * np.max(np.abs(rho)), drawn


@pytest.mark.parametrize("case", range(ACCURACY_CASES))
def test_conditioning_rebuilds_the_joint_within_a_few_n_eps(case):
    drawn = draw(case)
    _, joint, conditioned, ancilla = chain(*drawn)
    n = max(joint.dim_s, joint.dim_m)
    residual = np.max(np.abs(reconstruct_joint(conditioned, ancilla.kets, joint.dim_m) - joint.vec))
    assert residual <= RECONSTRUCTION_C * n * EPS * np.max(np.abs(joint.vec)), drawn


@pytest.mark.parametrize("case", range(ACCURACY_CASES))
def test_conditioned_kets_are_unit_within_a_few_n_eps(case):
    drawn = draw(case)
    _, joint, conditioned, _ = chain(*drawn)
    n = max(joint.dim_s, joint.dim_m)
    residual = np.max(np.abs(np.linalg.norm(conditioned.kets, axis=1) - 1.0))
    assert residual <= NORM_C * n * EPS, drawn


def gram_deviation(kets):
    """Max-norm distance of the rows' Gram matrix from the identity."""
    gram = np.conj(kets) @ kets.T
    return np.max(np.abs(gram - np.eye(len(gram))))


@pytest.mark.parametrize("case", range(ACCURACY_CASES))
def test_matched_ancilla_is_orthonormal_within_a_few_n_eps(case):
    drawn = draw(case)
    _, joint, conditioned, _ = chain(*drawn)
    n = max(joint.dim_s, joint.dim_m)
    ancilla = match_purification(conditioned, joint)
    assert gram_deviation(ancilla.kets) <= MATCH_C * n * EPS, drawn


@pytest.mark.parametrize("case", range(ACCURACY_CASES))
def test_umap_columns_are_orthonormal_within_a_few_n_eps(case):
    drawn = draw(case)
    e, joint, conditioned, _ = chain(*drawn)
    n = max(joint.dim_s, joint.dim_m)
    assert gram_deviation(umap_between(e, conditioned).coeffs.T) <= UMAP_C * n * EPS, drawn


@pytest.mark.parametrize("case", range(ACCURACY_CASES))
def test_containing_basis_is_orthonormal_within_a_few_n_eps(case):
    drawn = draw(case)
    e, joint, _, _ = chain(*drawn)
    n = max(joint.dim_s, joint.dim_m)
    _, basis = ensemble_containing(joint, e.kets[1])
    assert gram_deviation(basis) <= CONTAINING_C * n * EPS, drawn


def matrix(m):
    """A matrix object of a document, as the writers encode it."""
    entries = np.stack([m.real, m.imag], -1).tolist()
    return {"rows": m.shape[0], "cols": m.shape[1], "entries": entries}


@pytest.mark.parametrize("case", range(ACCURACY_CASES))
def test_maps_read_their_coefficients_from_their_generators(case):
    drawn = draw(case)
    e, joint, conditioned, _ = chain(*drawn)
    n = max(joint.dim_s, joint.dim_m)
    between = umap_between(e, conditioned)
    np.testing.assert_array_equal(between.coeffs, between.generator[:, : between.cols])
    rng = np.random.default_rng(drawn[0])
    basis = random_unitary(rng, joint.dim_m)
    _, applied = apply_unitary_umap(joint, basis, random_unitary(rng, joint.dim_m))
    _, source, _ = ensemble_from_basis(joint, basis)
    overlaps = np.conj(applied.basis) @ source.kets.T
    assert np.max(np.abs(applied.coeffs - overlaps)) <= APPLY_C * n * EPS, drawn
    for umap in (between, applied):
        # Documents once stored rows and the coefficients beside the generator.
        older = {
            "rows": umap.rows,
            "cols": umap.cols,
            "coeffs": matrix(umap.coeffs),
            "generator": matrix(umap.generator),
            "basis": matrix(umap.basis)["entries"],
        }
        for doc in ({"kind": "umap", "version": 1, "payload": older},
                    documents.umap_document(umap)):
            text = documents.dump_document(doc)
            assert bits(documents.to_umap(documents.load_document(text))) == bits(umap), drawn


def draw_schmidt(case):
    """Schmidt case ``case``: a seed, two dimensions, a rank from 1 to the
    smaller, and the exponent of the smallest Schmidt coefficient over the
    largest, at either end of [SPREAD, 0] in one case of three, from one
    generator seeded by ``case``."""
    rng = np.random.default_rng(case)
    seed = int(rng.integers(2**32))
    dim_s, dim_m = pick(rng, ACCURACY_DIMS), pick(rng, ACCURACY_DIMS)
    rank = int(rng.integers(1, min(dim_s, dim_m) + 1))
    exponent = pick(rng, [SPREAD, 0.0, *rng.uniform(SPREAD, 0.0, 4).tolist()])
    return seed, dim_s, dim_m, rank, exponent


def schmidt_target(seed, dim_s, dim_m, rank, exponent):
    """A joint ket of Schmidt coefficients falling geometrically by
    ``10**exponent``, a random unit ket of its support, and that ket's largest
    weight ``1 / <xi|rho^+|xi>``, read from the coefficients and left kets as drawn."""
    rng = np.random.default_rng(seed)
    coefficients = 10.0 ** (exponent * np.linspace(0.0, 1.0, rank))
    coefficients /= np.linalg.norm(coefficients)
    left = random_unitary(rng, dim_s)[:rank]
    joint = schmidt_joint(left, coefficients, random_unitary(rng, dim_m)[:rank])
    target = left.T @ (rng.normal(size=rank) + 1j * rng.normal(size=rank))
    target /= np.linalg.norm(target)
    return joint, target, 1.0 / np.sum(np.abs((np.conj(left) @ target) / coefficients) ** 2)


@pytest.mark.parametrize("case", range(ACCURACY_CASES))
def test_containing_weight_is_one_over_the_support_norm_within_a_few_n_eps(case):
    drawn = draw_schmidt(case)
    joint, target, weight = schmidt_target(*drawn)
    n = max(joint.dim_s, joint.dim_m)
    ensemble, _ = ensemble_containing(joint, target)
    assert abs(ensemble.weights[0] - weight) <= WEIGHT_C * n * EPS * weight, drawn


@pytest.mark.parametrize("case", range(ACCURACY_CASES))
def test_measurement_leaves_the_reduced_state_within_a_few_n_eps(case):
    drawn = draw(case)
    _, joint, _, _ = chain(*drawn)
    n = max(joint.dim_s, joint.dim_m)
    rho = joint.reduced_system()
    bound = NO_DISTURBANCE_C * n * EPS * np.max(np.abs(rho))
    basis = random_unitary(np.random.default_rng(drawn[0]), joint.dim_m)
    assert np.max(np.abs(steer(joint, basis, 1, 0).post_density - rho)) <= bound, drawn
    if joint.dim_s <= 16:  # the dense joint density takes 92 MB at 48 x 50
        _, post = measure_ancilla(joint, basis)
        traced = partial_trace_m(post, joint.dim_s, joint.dim_m)
        assert np.max(np.abs(traced - rho)) <= bound, drawn


def test_accuracy_cases_reach_every_category():
    cases = [draw(n) for n in range(ACCURACY_CASES)]
    assert {dim for _, dim, *_ in cases} == set(ACCURACY_DIMS)
    assert {extra for *_, extra, _ in cases} == {0, 1, 2}
    # 10**-9.9, about 1.26e-10, is the smallest weight just above rank_tol.
    assert {-9.9, -1.0} <= {exponent for *_, exponent in cases}
    spectra = [draw_schmidt(n) for n in range(ACCURACY_CASES)]
    assert {s for _, s, *_ in spectra} == {m for _, _, m, *_ in spectra} == set(ACCURACY_DIMS)
    assert {1} < {rank for *_, rank, _ in spectra}
    assert {SPREAD, 0.0} <= {exponent for *_, exponent in spectra}
