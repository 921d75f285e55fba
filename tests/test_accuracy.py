"""Accuracy of the products the constructions form, each bounded by ``c * n * eps``
times the size of the entries it reproduces (README's accuracy table).

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
"""

import numpy as np
import pytest

from rhokit import RhoEnsemble, ensemble_from_basis, purify
from helpers import pick, random_unitary, reconstruct_joint, weighted_projector_sum

PURIFY_C = 4.0
RECONSTRUCTION_C = 6.5
NORM_C = 1.6
ACCURACY_CASES = 80
ACCURACY_DIMS = [4, 16, 48, 96]
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


def test_accuracy_cases_reach_every_category():
    cases = [draw(n) for n in range(ACCURACY_CASES)]
    assert {dim for _, dim, *_ in cases} == set(ACCURACY_DIMS)
    assert {extra for *_, extra, _ in cases} == {0, 1, 2}
    # 10**-9.9, about 1.26e-10, is the smallest weight just above rank_tol.
    assert {-9.9, -1.0} <= {exponent for *_, exponent in cases}
