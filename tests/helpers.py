"""Shared random-value generators and oracles for the test suite."""

from __future__ import annotations

from dataclasses import fields, is_dataclass

import numpy as np

from rhokit import JointState, RhoEnsemble


def bits(value):
    """What makes up a value, to compare two bit for bit: a value class as its
    type and fields, an array as its dtype, shape and bytes in C order, a list
    entry by entry, and anything else as its type and value."""
    if is_dataclass(value):
        return type(value), [bits(getattr(value, field.name)) for field in fields(value)]
    if isinstance(value, np.ndarray):
        return value.dtype, value.shape, value.tobytes()
    if isinstance(value, list):
        return [bits(entry) for entry in value]
    return type(value), value


def pick(rng, options):
    """One of ``options``, as it is (a plain Python value stays plain)."""
    return options[int(rng.integers(len(options)))]


def random_ket(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim):
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases[None, :]


def forged_isometry():
    """A 3 x 2 matrix with orthonormal columns and no ancilla unitary behind
    it: the Q factor of a seeded complex draw."""
    rng = np.random.default_rng(3)
    return np.linalg.qr(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))[0]


def random_basis(rng, dim):
    """Orthonormal ket list (rows) spanning the whole space."""
    return random_unitary(rng, dim)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def random_weights(rng, n):
    w = rng.random(n) + 0.1
    return w / w.sum()


def random_ensemble(rng, dim, order):
    """Valid ensemble with pairwise well-separated random kets."""
    while True:
        kets = np.stack([random_ket(rng, dim) for _ in range(order)])
        gram = np.abs(np.conj(kets) @ kets.T)
        np.fill_diagonal(gram, 0.0)
        if np.max(gram, initial=0.0) < 0.999:
            return RhoEnsemble(kets=kets, weights=random_weights(rng, order))


def squeezed_ensemble(seed):
    """Ensemble of order = dim (3 to 6) whose last ket lies within 10**-6.5 to
    10**-4.5 of the span of the others; weights U(0.05, 1), normalized. Its
    density's smallest eigenvalue is mostly at or below 1e-10."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(3, 7))
    kets = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    span, _ = np.linalg.qr(kets[:-1].T)
    inside = span @ (np.conj(span).T @ kets[-1])
    outside = kets[-1] - inside
    distance = 10.0 ** rng.uniform(-6.5, -4.5)
    kets[-1] = inside / np.linalg.norm(inside) * np.sqrt(1.0 - distance**2)
    kets[-1] += outside / np.linalg.norm(outside) * distance
    weights = rng.uniform(0.05, 1.0, dim)
    return RhoEnsemble(
        kets=kets / np.linalg.norm(kets, axis=1)[:, None],
        weights=weights / weights.sum(),
    )


def random_joint(rng, dim_s, dim_m):
    return JointState(dim_s=dim_s, dim_m=dim_m, vec=random_ket(rng, dim_s * dim_m))


def computational(dim, index):
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def plus_ket():
    return np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def minus_ket():
    return np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


def bell_joint():
    """(e1 (x) e1 + e2 (x) e2) / sqrt(2) on a 2 x 2 product space."""
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1.0 / np.sqrt(2.0)
    return JointState(dim_s=2, dim_m=2, vec=vec)


def reconstruct_joint(ensemble, ancilla_kets, dim_m):
    """sum_j sqrt(w_j) phi_j (x) b_j as a flat system-major vector."""
    dim_s = ensemble.dim
    out = np.zeros(dim_s * dim_m, dtype=complex)
    for (ket, weight), b in zip(ensemble.elements(), ancilla_kets):
        out += np.sqrt(weight) * np.kron(ket, b)
    return out


def mapping_residual(umap, from_e, to_e):
    """Worst-row deviation of the coefficient map relation.

    Row j of ``coeffs @ (sqrt(v_k) psi_k)`` must equal sqrt(w_j) phi_j for
    j below the target order and vanish beyond it.
    """
    lhs = umap.coeffs @ (np.sqrt(from_e.weights)[:, None] * from_e.kets)
    rhs = np.zeros_like(lhs)
    rhs[: to_e.order] = np.sqrt(to_e.weights)[:, None] * to_e.kets
    return float(np.max(np.abs(lhs - rhs)))


def weighted_projector_sum(ensemble):
    return np.einsum(
        "s,si,sj->ij", ensemble.weights, ensemble.kets, np.conj(ensemble.kets)
    )


# "Same density" draws: two ensembles of one density, each with its weights
# summing to 1 + s * tol * order for s in SUM_OFFSETS (all admitted), and the
# second's state moved by a gap in units of tol.
SAME_DENSITY_CASES = 60
SAME_DENSITY_DIMS = [2, 4, 16, 48]
SUM_OFFSETS = [-0.9, 0.0, 0.9]
STATE_GAPS = [0.0, 0.5, 2.0]


def draw_same_density(case):
    """Case ``case``: a seed, a dimension, a rank from 2 (at rank 1 every
    element is collinear), two orders from the rank up, each side's weight-sum
    offset and the state gap, from one generator seeded by ``case``."""
    rng = np.random.default_rng(case)
    seed, dim = int(rng.integers(2**32)), pick(rng, SAME_DENSITY_DIMS)
    rank = int(rng.integers(2, min(dim, 4) + 1))
    orders = [rank + int(rng.integers(4)) for _ in range(2)]
    offsets = [pick(rng, SUM_OFFSETS) for _ in range(2)]
    return seed, dim, rank, *orders, *offsets, pick(rng, STATE_GAPS)


def same_density_pair(seed, dim, rank, order_a, order_b, offset_a, offset_b, gap, tol=1e-10):
    """Two ensembles whose amplitudes are isometries of one ``rank x dim``
    amplitude matrix, so one density, with weight sums ``1 + offset * tol *
    order``; ``b`` then moves weight between its first two elements so that
    its state changes by ``gap * tol`` in the max norm."""
    rng = np.random.default_rng(seed)
    amplitudes = rng.normal(size=(rank, dim)) + 1j * rng.normal(size=(rank, dim))
    pair = []
    for order, offset in ((order_a, offset_a), (order_b, offset_b)):
        rows = random_unitary(rng, order)[:, :rank] @ amplitudes
        weights = np.sum(np.abs(rows) ** 2, axis=1)
        weights *= (1.0 + offset * tol * order) / weights.sum()
        pair.append([rows / np.linalg.norm(rows, axis=1)[:, None], weights])
    kets, weights = pair[1]
    moved = np.outer(kets[0], kets[0].conj()) - np.outer(kets[1], kets[1].conj())
    step = gap * tol * weights.sum() / np.max(np.abs(moved))
    weights[0] += step
    weights[1] -= step
    return tuple(RhoEnsemble(kets=k, weights=w) for k, w in pair)
