"""The constructions composed: each output feeds the next, at dims up to 96.

One chain purifies an ensemble, conditions the joint ket on a Haar basis,
maps the ensemble onto that decomposition (``umap_between``), finds its
ancilla inside the joint (``match_purification``), rotates the joint by the
unitary the lemma gives between the two purifications (``lemma_unitary``),
rotates the basis by a Haar unitary (``apply_unitary_umap``) and builds a
decomposition around one member (``ensemble_containing``). Every output must
pass the library's own checkers at the default tolerances and satisfy its
defining identity within 1e-8. Every ensemble in the chain meets the
theorem's hypotheses (positive weights summing to 1, unit kets), the one
precondition of the constructions, so none may raise ``InvalidEnsemble``.
The one error a call may raise is ``NotInSupport`` from
``ensemble_containing``, for a member whose weight is below
``sqrt(rank_tol)``, the weight that guarantees admission.

An ensemble of order below its dimension purifies to a rank-deficient joint,
and an ancilla larger than the order leaves ``ensemble_containing`` a basis
to complete past the joint's rank. The order is at least 2: the elements of
a rank-1 joint conditioned on any basis are all one ket. A Haar basis with
more kets than ρ keeps eigenvalues (``thin``) can condition ρ into two
elements within ``rank_tol`` of one direction: always when ρ keeps one, and
often when its smallest kept eigenvalue is below ``sqrt(rank_tol)``. Only for
such a basis and such a density may ``validate_ensemble`` report a
conditioned ensemble, and then only collinear pairs, which the constructions
after it take as they are. Wherever the ancilla has no more kets than ρ keeps
eigenvalues, every conditioned ensemble must pass. A drawn ensemble whose
normalized weights reach below ``rank_tol`` is reported collinear too, and
purifies.
Kets, bases and unitaries go in as made, in Fortran order, or as views with
negative strides.

``TheoremMachine`` runs the same constructions in random order on one joint
ket, feeding each from its list of decompositions of the reduced state ρ.
``run_sequence`` draws its start and rules from one generator seeded by the
sequence number alone, so every run makes the same calls, whichever other
modules are loaded; a failed sequence reruns alone by its test id. The
drawn ensemble's weights sum to anywhere in the band the hypotheses admit,
``1 ± tol·order``, edges included, so every later comparison is between
states the constructions normalize by one rule. A conditioned member drops
the weight of the basis kets at or below ``rank_tol``, so it rebuilds the
joint only up to that tail: each identity it enters holds within 1e-8 plus
the square root of each dropped weight, and within 1e-8 where none is.
Every value a rule makes goes through its document, dumped and loaded as the
CLI moves it, must come back bit for bit, and the machine keeps the reloaded
value, in C order like every loaded array.
"""

import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from rhokit import (
    DEFAULT_RANK_TOL,
    DEFAULT_TOL,
    Ancilla,
    NotInSupport,
    RhoEnsemble,
    apply_unitary_umap,
    check_umap,
    complete_orthonormal,
    documents,
    ensemble_containing,
    ensemble_from_basis,
    ensemble_to_density,
    lemma_unitary,
    match_purification,
    measure_ancilla,
    partial_trace_m,
    purify,
    steer,
    umap_between,
    validate_ensemble,
)
from helpers import bits, mapping_residual, pick, random_basis, random_unitary, reconstruct_joint

IDENTITY_TOL = 1e-8
# Weights U(0.1, 1), or log-uniform down to the floor; normalized afterwards.
SPECTRA = {"uniform": None, "floor1e-6": 1e-6, "floor2e-10": 2e-10}
FLOORS = list(SPECTRA.values())
SEEDS = range(2**32)


def weights(rng, dim, floor):
    if floor is None:
        w = rng.uniform(0.1, 1.0, dim)
    else:
        w = 10.0 ** rng.uniform(np.log10(floor), 0.0, dim)
    return w / w.sum()


def laid_out(a, layout):
    """``a`` as made, its values in Fortran order, or a view of them with
    negative strides (a reversed copy, reversed back)."""
    if layout == "fortran":
        return np.asfortranarray(a)
    if layout == "strided":
        return np.flip(np.flip(a).copy())
    return a


def thin(kept, dim_m) -> bool:
    """A basis of ``dim_m`` kets may condition ρ, whose kept eigenvalues are
    ``kept`` (descending), into collinear elements: it has more kets than ρ
    keeps, and ρ keeps one (a pair density's smaller eigenvalue is at most ρ's
    second, at most rank_tol) or its smallest kept is below sqrt(rank_tol)."""
    return dim_m > len(kept) and (len(kept) == 1 or kept[-1] < np.sqrt(DEFAULT_RANK_TOL))


def only_collinear(report) -> bool:
    return all("collinear" in line for line in report)


def clean(output, collinear_ok):
    """``validate_ensemble`` passes ``output``, or reports only collinear
    pairs, and those only where ``collinear_ok``: for a basis that conditions
    ρ ``thin``."""
    report = validate_ensemble(output)
    assert only_collinear(report) if collinear_ok else report == []


def chain(seed, dim, floor, order=None, dim_m=None, layout="as made") -> str:
    """Run one chain of ``order`` kets (default ``dim``) on an ancilla of
    ``dim_m`` (default ``dim``); return the stage it ended at."""
    order = dim if order is None else order
    dim_m = dim if dim_m is None else dim_m
    rng = np.random.default_rng(seed)
    kets = rng.normal(size=(order, dim)) + 1j * rng.normal(size=(order, dim))
    kets /= np.linalg.norm(kets, axis=1)[:, None]
    e = RhoEnsemble(kets=laid_out(kets, layout), weights=weights(rng, order, floor))
    assert only_collinear(validate_ensemble(e))
    joint, _ = purify(e, dim_m)
    spectrum = np.linalg.svd(np.sqrt(e.weights)[:, None] * kets, compute_uv=False) ** 2
    collinear_ok = thin(spectrum[spectrum > DEFAULT_RANK_TOL], dim_m)

    basis = laid_out(random_basis(rng, dim_m), layout)
    to_e, _, _ = ensemble_from_basis(joint, basis)
    clean(to_e, collinear_ok)

    u = umap_between(e, to_e)
    assert check_umap(u) == []
    assert mapping_residual(u, e, to_e) <= IDENTITY_TOL

    ancilla = match_purification(to_e, joint)
    residual = reconstruct_joint(to_e, ancilla.kets, dim_m) - joint.vec
    assert np.abs(residual).max() <= IDENTITY_TOL

    other, _ = purify(to_e, dim_m)
    rotation = lemma_unitary(joint, other)
    assert np.abs(rotation @ np.conj(rotation).T - np.eye(dim_m)).max() <= IDENTITY_TOL
    rotated = (other.as_matrix() @ rotation.T).reshape(-1)
    assert np.abs(rotated - joint.vec).max() <= IDENTITY_TOL

    unitary = laid_out(random_unitary(rng, dim_m), layout)
    rotated_e, v = apply_unitary_umap(joint, basis, unitary)
    clean(rotated_e, collinear_ok)
    assert check_umap(v) == []
    assert mapping_residual(v, to_e, rotated_e) <= IDENTITY_TOL

    k = int(rng.integers(order))
    member, weight = laid_out(e.kets[k], layout), float(e.weights[k])
    try:
        contained, completed = ensemble_containing(joint, member)
    except NotInSupport:
        assert weight < np.sqrt(DEFAULT_RANK_TOL)
        return "member below the admission weight"
    assert validate_ensemble(contained) == []
    # Element 0 is the member's projection onto the kept support, within
    # sqrt(2 lambda / p) of it, lambda <= rank_tol the largest dropped eigenvalue.
    bound = np.sqrt(2.0 * DEFAULT_RANK_TOL / weight) + IDENTITY_TOL
    assert np.linalg.norm(contained.kets[0] - member) <= bound
    assert np.abs(completed @ np.conj(completed).T - np.eye(dim_m)).max() <= IDENTITY_TOL
    return "complete"


# The two stages a chain may end at; the second only for a member whose
# weight ``chain`` itself finds below sqrt(rank_tol).
ENDS = {"complete", "member below the admission weight"}


@pytest.mark.parametrize("floor", SPECTRA.values(), ids=SPECTRA.keys())
@pytest.mark.parametrize("dim", [4, 16, 48, 96])
def test_fixed_seed_chains_at_the_benchmark_dimensions(dim, floor):
    ends = [chain(seed, dim, floor) for seed in range(3)]
    assert set(ends) <= ENDS, ends


def test_random_chains_at_small_dimensions():
    rng = np.random.default_rng(1)  # a seed, a dim from 2 to 8 and a spectrum
    for draw in range(100):
        assert chain(pick(rng, SEEDS), int(rng.integers(2, 9)), pick(rng, FLOORS)) in ENDS, draw


LAYOUTS = ["fortran", "strided"]


@pytest.mark.parametrize("floor", SPECTRA.values(), ids=SPECTRA.keys())
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("dim", [16, 48, 96])
def test_fixed_seed_rank_deficient_chains(dim, layout, floor):
    # Order a third of dim, on an ancilla of half dim and of dim + 4.
    ends = [chain(seed, dim, floor, dim // 3, dim_m, layout)
            for seed in range(2) for dim_m in (dim // 2, dim + 4)]
    assert ends == ["complete"] * 4


def test_random_rank_deficient_chains():
    rng = np.random.default_rng(2)
    for draw in range(100):
        dim, floor = int(rng.integers(2, 9)), pick(rng, FLOORS)
        layout = pick(rng, ["as made", *LAYOUTS])
        order = int(rng.integers(2, max(2, dim - 1) + 1))
        dim_m = int(rng.integers(order, dim + 4))
        assert chain(pick(rng, SEEDS), dim, floor, order, dim_m, layout) in ENDS, draw


def test_a_basis_past_the_order_keeps_a_thin_density_valid():
    # rho has kept eigenvalues 1 and 5.3e-9; a Haar basis of 6 conditions it
    # into elements 4 and 5 (weights 0.396 and 0.0106, |overlap| 0.9999999953),
    # whose pair density's smaller eigenvalue is under rank_tol.
    assert chain(0, 3, 2e-10, order=2, dim_m=6) == "complete"


def test_a_fixed_seed_slice_of_random_chains_never_refuses_a_valid_ensemble():
    # Dims 2-8, order 2 to dim - 1, ancilla from the order to dim + 3, the
    # spectra in turn: a slice in which bases past the order condition thin
    # densities into collinear elements, which every later construction takes.
    rng = np.random.default_rng(12345)
    floors = list(SPECTRA.values())
    for i in range(1500):
        dim = int(rng.integers(2, 9))
        order = int(rng.integers(2, max(2, dim - 1) + 1)) if dim > 2 else 2
        dim_m = int(rng.integers(order, dim + 4))
        end = chain(i, dim, floors[i % 3], order, dim_m)
        assert end in ENDS, (i, dim, order, dim_m, end)


def in_band(w, fraction):
    """``w`` (summing to 1) scaled to sum to ``1 + fraction * tol * order``, for
    ``fraction`` in [-1, 1]; at an edge, stepped inward by ulps until the float
    sum is admitted."""
    band = DEFAULT_TOL * len(w)
    scale = 1.0 + fraction * band
    while not abs((w * scale).sum() - 1.0) <= band:
        scale = np.nextafter(scale, 1.0)
    return w * scale


def reloaded(kind, value):
    """``value`` written as a ``kind`` document, dumped, loaded and read back
    by the matching ``to_*``, once it has come back bit for bit."""
    text = documents.dump_document(getattr(documents, f"{kind}_document")(value))
    back = getattr(documents, f"to_{kind}")(documents.load_document(text))
    assert bits(back) == bits(value)
    return back


@dataclass(frozen=True, eq=False)
class Member:
    """A decomposition of the joint's ρ with the ancilla kets that realize it.
    ``collinear_ok``: ``validate_ensemble`` may report collinear pairs.
    ``tail``: the norm of the joint outside those kets, the square root of the
    weight the member dropped; 0 when the kets span the ancilla."""

    ensemble: RhoEnsemble
    ancilla: np.ndarray
    collinear_ok: bool
    tail: float


class TheoremMachine:
    """Random sequences of the constructions on one joint ket.

    Each rule takes members from ``known``, passes every value it makes
    through its document (``reloaded``) and checks the reloaded value's
    defining identity within ``IDENTITY_TOL`` plus the tails of the members it
    rebuilds the joint from. After every step, each member's density is ρ within
    ``tol * order``, every map passes ``check_umap``, and ``validate_ensemble``
    reports at most what ``chain`` allows: collinear pairs in the drawn
    ensemble, and in a conditioned one only for a basis that conditions ρ
    ``thin``. The one error a rule may meet is ``NotInSupport``, for a target
    of weight below ``sqrt(rank_tol)``; any other fails the run.
    """

    def tail(self, ancilla):
        """The norm of the joint outside the span of the ``ancilla`` kets."""
        rest = complete_orthonormal(Ancilla(self.joint.dim_m, ancilla))[len(ancilla):]
        return float(np.linalg.norm(self.joint.as_matrix() @ np.conj(rest).T))

    def add(self, ensemble, ancilla, collinear_ok):
        ensemble, ancilla = reloaded("ensemble", ensemble), reloaded("basis", ancilla)
        member = Member(ensemble, ancilla, collinear_ok, self.tail(ancilla))
        self.known.append(member)
        return member

    def basis_of(self, member):
        return laid_out(
            complete_orthonormal(Ancilla(self.joint.dim_m, member.ancilla)), self.layout
        )

    def start(self, seed, dim, floor, layout, order, dim_m, fraction):
        rng = np.random.default_rng(seed)
        kets = rng.normal(size=(order, dim)) + 1j * rng.normal(size=(order, dim))
        kets /= np.linalg.norm(kets, axis=1)[:, None]
        e = RhoEnsemble(laid_out(kets, layout), in_band(weights(rng, order, floor), fraction))
        self.layout, self.known, self.maps = layout, [], []
        joint, ancilla = purify(e, dim_m)
        self.joint = reloaded("joint", joint)
        self.rho = self.joint.reduced_system()
        kept = np.linalg.eigvalsh(self.rho)[::-1]
        self.thin = thin(kept[kept > DEFAULT_RANK_TOL], dim_m)
        return self.add(e, ancilla.kets, True)

    def condition_on_a_haar_basis(self, seed):
        basis = random_basis(np.random.default_rng(seed), self.joint.dim_m)
        e, ancilla, _ = ensemble_from_basis(self.joint, laid_out(basis, self.layout))
        return self.add(e, ancilla.kets, self.thin)

    def rotate_a_basis(self, member, seed):
        basis = self.basis_of(member)
        unitary = random_unitary(np.random.default_rng(seed), self.joint.dim_m)
        rotated, umap = apply_unitary_umap(self.joint, basis, laid_out(unitary, self.layout))
        source, ancilla, _ = ensemble_from_basis(self.joint, basis)
        umap = reloaded("umap", umap)
        self.maps.append(umap)
        added = self.add(rotated, umap.basis[: rotated.order], self.thin)
        bound = IDENTITY_TOL + self.tail(ancilla.kets) + added.tail
        assert mapping_residual(umap, source, added.ensemble) <= bound
        return added

    def contain(self, member, element=None, seed=None):
        if element is not None:
            target = member.ensemble.kets[element]
            weight = member.ensemble.weights[element] / member.ensemble.weights.sum()
        else:  # xi ~ sum_s sigma_s c_s u_s over the kept support: of weight |sigma c|^2
            u, sv, _ = np.linalg.svd(self.joint.as_matrix())
            sv = sv[sv**2 > DEFAULT_RANK_TOL]
            rng = np.random.default_rng(seed)
            c = rng.normal(size=len(sv)) + 1j * rng.normal(size=len(sv))
            amplitudes = sv * c / np.linalg.norm(c)
            weight = float(np.vdot(amplitudes, amplitudes).real)
            target = u[:, : len(sv)] @ amplitudes / np.sqrt(weight)
        try:
            contained, completed = ensemble_containing(self.joint, laid_out(target, self.layout))
        except NotInSupport:
            assert weight < np.sqrt(DEFAULT_RANK_TOL)
            return None
        # Its basis is one ensemble_from_basis admits, and conditions the same.
        again, ancilla, _ = ensemble_from_basis(self.joint, reloaded("basis", completed))
        added = self.add(contained, ancilla.kets, False)
        bound = np.sqrt(2.0 * DEFAULT_RANK_TOL / weight) + IDENTITY_TOL
        assert np.linalg.norm(added.ensemble.kets[0] - target) <= bound
        np.testing.assert_array_equal(again.kets, added.ensemble.kets)
        np.testing.assert_array_equal(again.weights, added.ensemble.weights)
        return added

    def map_one_member_onto_another(self, a, b):
        umap = reloaded("umap", umap_between(a.ensemble, b.ensemble))
        assert mapping_residual(umap, a.ensemble, b.ensemble) <= IDENTITY_TOL + a.tail + b.tail
        self.maps.append(umap)

    def match_a_member_to_the_joint(self, member):
        found = reloaded("basis", match_purification(member.ensemble, self.joint).kets)
        rebuilt = reconstruct_joint(member.ensemble, found, self.joint.dim_m)
        assert np.abs(rebuilt - self.joint.vec).max() <= IDENTITY_TOL + member.tail

    def rotate_a_members_purification_onto_the_joint(self, member):
        other = reloaded("joint", purify(member.ensemble, self.joint.dim_m)[0])
        rotation = reloaded("matrix", lemma_unitary(self.joint, other))
        dim_m = self.joint.dim_m
        assert np.abs(rotation @ np.conj(rotation).T - np.eye(dim_m)).max() <= IDENTITY_TOL
        rotated = (other.as_matrix() @ rotation.T).reshape(-1)
        assert np.abs(rotated - self.joint.vec).max() <= IDENTITY_TOL + member.tail

    def steer_on_a_members_basis(self, member, seed):
        basis = self.basis_of(member)
        report = reloaded("report", steer(self.joint, basis, 1000, seed))
        mixture, post = measure_ancilla(self.joint, basis)
        post = reloaded("matrix", post)
        assert sum(report.counts) == 1000
        np.testing.assert_array_equal(report.expected_weights, [w for w, _, _ in mixture])
        reduced = partial_trace_m(post, self.joint.dim_s, self.joint.dim_m)
        for system in (report.post_density, reduced):
            assert np.abs(system - self.rho).max() <= IDENTITY_TOL

    def every_member_decomposes_rho(self):
        for member in self.known:
            e = member.ensemble
            density = ensemble_to_density(e).matrix
            assert np.abs(density - self.rho).max() <= DEFAULT_TOL * e.order
            report = validate_ensemble(e)
            assert only_collinear(report) if member.collinear_ok else report == []

    def every_map_is_clean(self):
        for umap in self.maps:
            assert check_umap(umap) == []


# Where each rule's arguments are drawn from: the members or the seeds. ``contain``
# adds one of its member's elements or, half the time, a range vector's seed.
RULES = {
    "condition_on_a_haar_basis": [SEEDS],
    "rotate_a_basis": ["known", SEEDS],
    "contain": ["known"],
    "map_one_member_onto_another": ["known", "known"],
    "match_a_member_to_the_joint": ["known"],
    "rotate_a_members_purification_onto_the_joint": ["known"],
    "steer_on_a_members_basis": ["known", SEEDS],
}


def run_sequence(sequence, steps=20):
    """Start a machine, then run ``steps`` rules drawn uniformly, all from one
    generator seeded by ``sequence``; return the calls, which a failure lists."""
    rng, machine, trace = np.random.default_rng(sequence), TheoremMachine(), []

    def call(name, args):
        shown = (f"known[{machine.known.index(a)}]" if isinstance(a, Member) else repr(a)
                 for a in args)
        trace.append(f"{name}({', '.join(shown)})")
        try:
            checked(machine, getattr(machine, name)(*args))
        except Exception as exc:
            raise AssertionError(f"sequence {sequence} failed:\n" + "\n".join(trace)) from exc

    dim = int(rng.integers(2, 7))
    order = int(rng.integers(2, dim + 1))
    fraction = pick(rng, [-1.0, 1.0, float(rng.uniform(-1.0, 1.0))])  # at an edge in 2 of 3
    call("start", [pick(rng, SEEDS), dim, pick(rng, FLOORS), pick(rng, ["as made", *LAYOUTS]),
                   order, int(rng.integers(order, dim + 4)), fraction])
    for name in (pick(rng, list(RULES)) for _ in range(steps)):
        args = [pick(rng, machine.known if kind == "known" else kind) for kind in RULES[name]]
        if name == "contain":
            element = int(rng.integers(args[0].ensemble.order))
            args += [element] if rng.integers(2) else [None, pick(rng, SEEDS)]
        call(name, args)
    return trace


@pytest.mark.parametrize("sequence", range(150))
def test_random_sequences_of_constructions(sequence):
    assert len(run_sequence(sequence)) == 21


def test_the_sequences_do_not_depend_on_the_modules_loaded():
    # A process that imports this module alone makes the same calls as this
    # one, into which pytest may have loaded every other test module.
    script = "import test_theorem as t; print([t.run_sequence(s) for s in range(3)])"
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, check=True)
    assert child.stdout == f"{[run_sequence(s) for s in range(3)]}\n"


def started_on_a_numerically_rank_one_rho():
    """The machine as the shrunk failing sequences of five rules began: seed 5,
    dim 2, floor 2e-10, order and dim_m 2, weights at the band's lower edge.
    Both drawn weights (6.05e-10 and 1 - 6e-10) lie above rank_tol, but ρ's
    smaller eigenvalue, 2.67e-11, lies below it: ρ keeps one."""
    machine = TheoremMachine()
    drawn = checked(machine, machine.start(5, 2, 2e-10, "as made", 2, 2, -1.0))
    assert machine.thin and drawn.tail == 0.0
    return machine, drawn


def checked(machine, result):
    """``result`` of one step, once the machine's invariants hold after it."""
    machine.every_member_decomposes_rho()
    machine.every_map_is_clean()
    return result


def test_a_haar_basis_past_the_kept_rank_may_condition_collinear_elements():
    machine, _ = started_on_a_numerically_rank_one_rho()
    conditioned = checked(machine, machine.condition_on_a_haar_basis(0))
    assert validate_ensemble(conditioned.ensemble) != []


@pytest.mark.parametrize(
    "step",
    [
        lambda machine, drawn, contained: machine.rotate_a_basis(contained, 0),
        lambda machine, drawn, contained: machine.map_one_member_onto_another(contained, drawn),
        lambda machine, drawn, contained: machine.match_a_member_to_the_joint(contained),
        lambda machine, drawn, contained: (
            machine.rotate_a_members_purification_onto_the_joint(contained)
        ),
    ],
    ids=["rotate_a_basis", "map_onto_another", "match_to_the_joint", "rotate_onto_the_joint"],
)
def test_a_member_that_drops_a_tail_rebuilds_the_joint_up_to_it(step):
    # The range vector of seed 0 is contained in a decomposition that drops
    # the basis ket of weight 2.67e-11: its identities miss by up to 4.3e-6.
    machine, drawn = started_on_a_numerically_rank_one_rho()
    contained = checked(machine, machine.contain(drawn, seed=0))
    assert contained.ensemble.order == 1
    assert contained.tail == pytest.approx(np.sqrt(2.67e-11), rel=0.01)
    checked(machine, step(machine, drawn, contained))
