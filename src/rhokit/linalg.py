"""Dense complex linear algebra primitives, and the rules every module applies.

This docstring is the reference for the thresholds, the rank cutoff, the
normalization rule and the boundary; every other docstring names the rule it
applies without restating it.

Conventions used throughout the package:

* Kets are 1-D complex ``numpy`` arrays; "ket lists" (bases, ancillae,
  eigenvector sets) are 2-D arrays with one ket per row.
* Tensor products are system-major: the flat index of ``s (x) m`` is
  ``i_S * dim_m + k_M``, which is exactly ``numpy.kron(s, m)``.
* Two records hold that layout with its invariants: ``JointState``, a unit
  joint ket with both dimensions, and ``Ancilla``, orthonormal kets on the
  ``dim_m`` factor. ``schmidt_decompose`` and ``complete_orthonormal`` take
  them and admit nothing more.

Thresholds. Three decide every check, each by one rule, and a function takes
only the tolerances it uses.

* The admission: every value a caller hands in is admitted at the one fixed
  ``_CONSTRUCT_TOL = 1e-8``, which no argument moves. It is looser than the
  per-call tolerances, so that round-tripped values are never refused. A ket
  is admitted at unit norm within it (a ``JointState``,
  ``ensemble_containing``'s target: NotNormalized); a ket list at orthonormal
  rows within it (an ``Ancilla``: NotOrthonormal; an ancilla basis:
  NotOrthonormalBasis); a unitary at orthonormal columns within it
  (NotUnitary); a probability vector at a sum of 1 within it
  (WeightsNotNormalized); and a matrix at Hermitian symmetry within it
  (NotHermitian). Each of these messages ends ``(tol 1.000e-08)``. An
  ensemble's admission is the theorem's hypotheses, and a density's is
  ``DensityMatrix``'s, both stated in ``rhokit.ensembles`` as multiples of it.
* ``tol``, default ``DEFAULT_TOL``, judges agreement only: of two states at a
  gate (max norm), a map's orthonormality and unitarity, the theorem's
  hypotheses as a reporter reads them, and the pairs ``ensembles_equal`` matches.
* ``rank_tol``, default ``DEFAULT_RANK_TOL``, cuts a spectrum of squared
  values: conditional weights, squared Schmidt coefficients, eigenvalues and
  squared singular values of a ket list.

Every ``tol`` and ``rank_tol`` must be a finite non-negative real number, by
one rule (``_check_tolerances``) in every function that takes one, reporters
and predicates included. NaN, +-inf, a negative value, a complex value in any
form (a Python complex number, a numpy complex scalar or array, even with a
zero imaginary part) and a bool raise InvalidArgument ("tol must be a finite
non-negative number, got ..."); from the CLI such a flag is a usage error.

The rank cutoff. One private cutoff, ``_kept_rank``, keeps the values above
``rank_tol``: ``int(np.count_nonzero(values > rank_tol))`` of them. When it
keeps nothing it raises InvalidArgument ("rank_tol ... is not below the
largest ..."), naming what it cut: a conditional weight, a squared Schmidt
coefficient or an eigenvalue. The joint is a unit ket and a density has
trace 1, so such a cutoff leaves no element, no Schmidt term and no support.
``is_linearly_independent`` reads the same count and returns False instead.

Normalization. Every state, ket, weight and singular value a construction
takes from a coefficient matrix (a joint ket as a ``dim_s x dim_m`` matrix, or
an ensemble's rows ``sqrt(w_j) phi_j``) is taken from that matrix over its
Frobenius norm (``_at_unit_norm``), and every state a construction returns is
the unit-trace state ``_state`` of its amplitudes. The rule has no exception:
every cut is returned over its own total. A conditioned joint's weights and a
record's eigenvalues go over their kept sum, which also absorbs the trace a
``DensityMatrix`` admits and the sum that a basis admitted off orthonormal
conditions; a Schmidt spectrum, at unit norm by construction, goes over the
root of 1 less its dropped squares. So the weights of every ensemble a
construction returns, and the squares of every Schmidt spectrum, sum to 1 to
rounding for every admitted input. Kets whose squares leave the float range
keep their state: ``_state`` first scales their matrix by the power of two of
its largest entry, which changes no bit of the state. Kets that are all zero
have no state. What is kept as given is listed in ``rhokit.ensembles``.

The boundary. Every public callable passes through one decorator,
``_public``, whose docstring gives its three entry rules in order: each
function in ``rhokit.__all__``, each reader and writer of
``rhokit.documents``, the constructors of ``RhoEnsemble``, ``DensityMatrix``,
``JointState``, ``Ancilla``, ``UMap`` and ``SteeringReport``, and
``JointState.reduced_system``. A parameter annotated with a value class
refuses anything else, ``None`` included, with InvalidArgument naming the
parameter and the class. The body then checks its own arrays and integers
once, on entry, and returns values that satisfy their class invariants, so
they pass on unchecked; ``rhokit.purification`` lists where a value is built
without its constructor's checks.

* Arrays: each array argument (a ket, a matrix, a ket list or weights) is
  converted once, by ``_convert``. What numpy cannot convert (a string, an
  object entry) and complex values where reals are expected, in any form,
  raise InvalidArgument, since numpy would drop the imaginary part with only
  a warning; rows of unequal length, and any array of the wrong shape, raise
  DimensionMismatch. InvalidArgument is a ValueError, so code that catches
  ValueError keeps working. A ket list may be an ``ndarray`` in any memory
  layout, a list or tuple of kets, or a generator of kets.
* Integers: ``shots`` in [1, 2^63 - 1], a ``seed`` >= 0 and every dimension
  >= 1 go through ``_check_integer``, so floats such as ``10.5`` and bools
  are refused, not truncated (InvalidArgument).
* Memory: an allocation inside any public call that the host refuses raises
  ResourceExhausted, a RhokitError and a MemoryError. Its message names the
  innermost public callable, followed by numpy's own text when it has any:
  "purify needs more memory than is available: Unable to allocate 29.1 TiB
  ...". A ResourceExhausted from a nested public call passes unchanged. An
  allocation sized by a caller's integer whose size numpy cannot represent at
  all (numpy refuses ``2**59`` complex entries and any axis past ``2**63``)
  raises it too, naming the array (``_out_of_memory``): ``purify``'s joint
  ket, ``complete_orthonormal``'s completion and an empty ket list of a given
  dimension. ``tests/test_boundary.py`` checks the rule: a child process
  calls every public callable under a soft address-space limit lowered from
  the call's peak (measured in a forked process, so LAPACK's workspaces
  count) to a sixteenth of it, and each call must return or raise a
  RhokitError. One failure lies outside the rule: numpy 2.4.6 allocates a
  ufunc's buffers after releasing the GIL, and when that allocation fails
  the process crashes instead of raising.
* Solvers: every SVD goes through ``_svd`` and every eigendecomposition is one
  ``eig_hermitian`` call; one that does not converge raises NumericalFailure
  ("SVD failed: ..." or "eigensolver failed: ...").
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, is_dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    NotHermitian,
    NotNormalized,
    NotOrthonormal,
    NumericalFailure,
    ResourceExhausted,
)

DEFAULT_TOL = 1e-10
DEFAULT_RANK_TOL = 1e-10

# The admission threshold (see the module docstring).
_CONSTRUCT_TOL = 1e-8
_TINY = np.finfo(float).tiny  # the smallest normal float


def _check_tolerances(**named) -> None:
    """Raise InvalidArgument unless every named tolerance is a finite real >= 0.

    ``0 <= value < inf`` is False for NaN and raises for values that are not
    real scalars (strings, Python complex numbers, arrays), all without a
    warning. A plain float needs no more. Anything else must also be a
    finite scalar of a real numeric dtype (of its type, for a Python scalar):
    numpy orders its complex numbers, bools compare as 0 and 1, an array of
    one entry compares as that entry, and an int past the float range
    compares below inf.
    """
    for name, value in named.items():
        try:
            valid = bool(0.0 <= value < math.inf)
            if valid and not isinstance(value, float):
                dtype = getattr(value, "dtype", np.dtype(type(value)))
                valid = dtype.kind in "iuf" and np.ndim(value) == 0 and math.isfinite(value)
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            raise InvalidArgument(f"{name} must be a finite non-negative number, got {value!r}")


def _check_integer(name: str, value, minimum: int, maximum: int | None = None) -> int:
    """``value`` as an int; InvalidArgument unless it is an integer in bounds.

    Integers are whatever ``operator.index`` accepts, bools excluded, so
    ``10.5`` is rejected rather than truncated.
    """
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < minimum or (maximum is not None and number > maximum):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise InvalidArgument(f"{name} must be an integer {bound}, got {value!r}")
    return number


def _check_instance(name: str, value, cls: type) -> None:
    """Raise InvalidArgument unless ``value`` is an instance of ``cls``."""
    if not isinstance(value, cls):
        raise InvalidArgument(
            f"{name} must be of type {cls.__name__}, got {type(value).__name__}"
        )


def _public(fn):
    """The one boundary of a public callable: ``fn`` with its entry rules applied.

    In this order: every ``tol`` or ``rank_tol`` the caller passed goes through
    ``_check_tolerances`` (the defaults are valid constants); every parameter
    annotated with a value class (a dataclass named in ``fn``'s module) must
    hold an instance of it; and a MemoryError raised anywhere in the call becomes
    ``ResourceExhausted`` naming ``fn``, followed by numpy's text when it has
    any. A ResourceExhausted from a nested call passes unchanged. The
    parameters are read once, here, from ``__code__`` and ``__annotations__``.
    """
    code = fn.__code__
    names = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
    tolerances = [(i, name) for i, name in enumerate(names) if name in ("tol", "rank_tol")]
    classes = [
        (i, name, cls)
        for i, name in enumerate(names)
        if isinstance(cls := fn.__globals__.get(fn.__annotations__.get(name)), type)
        and is_dataclass(cls)
    ]
    what = fn.__qualname__.removesuffix(".__post_init__")

    @functools.wraps(fn)
    def public(*args, **kwargs):
        try:
            for i, name in tolerances:
                if i < len(args) or name in kwargs:
                    _check_tolerances(**{name: args[i] if i < len(args) else kwargs[name]})
            for i, name, cls in classes:
                if i < len(args) or name in kwargs:
                    _check_instance(name, args[i] if i < len(args) else kwargs[name], cls)
            return fn(*args, **kwargs)
        except ResourceExhausted:
            raise
        except MemoryError as exc:
            detail = f": {exc}" if str(exc) else ""
            raise ResourceExhausted(f"{what} needs more memory than is available{detail}") from exc

    return public


def _convert(value, dtype=complex) -> np.ndarray:
    """``value`` as an array of ``dtype``, reading an iterator into a list first:
    the one ``np.asarray`` on caller data. Ragged rows raise DimensionMismatch,
    anything else numpy cannot convert raises InvalidArgument, and so do
    complex values where ``dtype`` is real, whose imaginary part numpy would
    drop with only a warning."""
    try:
        source = list(value) if isinstance(value, Iterator) else value
        if dtype is float and np.iscomplexobj(source):
            raise TypeError("complex values where reals are expected")
        return np.asarray(source, dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        error = DimensionMismatch if "inhomogeneous" in str(exc) else InvalidArgument
        raise error(f"cannot convert to an array of {np.dtype(dtype)}: {exc}") from exc


def _checked(arr: np.ndarray, ndim: int, noun: str, empty: bool = False) -> np.ndarray:
    """``arr`` once it has ``ndim`` axes, entries unless ``empty``, all finite."""
    if arr.ndim != ndim or not (empty or arr.size):
        raise DimensionMismatch(f"expected a {ndim}-D {noun}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidArgument(f"{noun} contains non-finite entries")
    return arr


def _out_of_memory(what: str) -> ResourceExhausted:
    """The error for an allocation of ``what`` whose size numpy cannot represent.

    Raised only where a caller's integer sizes an array, from numpy's
    ValueError: ``except ValueError as exc: raise _out_of_memory(what) from exc``.
    A MemoryError anywhere is ``_public``'s to translate.
    """
    return ResourceExhausted(f"{what} needs more memory than is available")


def as_ket(v) -> np.ndarray:
    """Coerce to a 1-D complex array, rejecting non-finite entries."""
    return _checked(_convert(v), 1, "vector")


def as_operator(m) -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting non-finite entries."""
    return _checked(_convert(m), 2, "matrix")


def as_ket_list(kets, dim: int | None = None) -> np.ndarray:
    """Coerce a sequence of kets to a (count, dim) array, ``dim >= 1``; may hold no kets."""
    arr = _convert(kets)
    if arr.shape == (0,):
        if dim is None:
            raise DimensionMismatch("cannot infer dimension of an empty ket list")
        try:
            arr = arr.reshape(0, dim)
        except ValueError as exc:
            raise _out_of_memory(f"an empty ket list of dimension {dim}") from exc
    _checked(arr, 2, "ket list", empty=True)
    if arr.shape[1] == 0 or dim not in (None, arr.shape[1]):
        raise DimensionMismatch(
            f"ket list has dimension {arr.shape[1]}, expected {dim or 'at least 1'}"
        )
    return arr


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(m).T


def max_abs(x) -> float:
    """Largest entry magnitude; zero for empty input.

    A NaN entry (overflow inside a residual) counts as infinite, so every
    ``max_abs(...) > tol`` check fails on it.
    """
    peak = float(np.abs(x).max(initial=0.0))
    return math.inf if math.isnan(peak) else peak


def gram_matrix(kets: np.ndarray) -> np.ndarray:
    """Pairwise inner products G[i, j] = <k_i|k_j> for a row-stacked ket list."""
    return np.conj(kets) @ kets.T


def orthonormality_deviation(kets: np.ndarray) -> float:
    """Max-norm distance of a ket list's Gram matrix from the identity; 0 when empty."""
    gram = gram_matrix(kets)
    flat = gram.reshape(-1)  # a view: matmul returns a fresh C-ordered matrix
    flat[:: len(gram) + 1] -= 1.0  # the diagonal
    return max_abs(flat)


def _admit_unit_norm(vec: np.ndarray, noun: str) -> float:
    """``vec``'s norm; NotNormalized unless it is within ``_CONSTRUCT_TOL`` of 1."""
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > _CONSTRUCT_TOL:
        raise NotNormalized(f"{noun} has norm {norm!r}, expected 1 (tol {_CONSTRUCT_TOL:.3e})")
    return norm


def _admit_orthonormal(kets: np.ndarray, error: type, what: str) -> None:
    """Raise ``error`` unless the rows of ``kets`` are within ``_CONSTRUCT_TOL``
    of orthonormal; ``what`` names the deviation in its message."""
    deviation = orthonormality_deviation(kets)
    if deviation > _CONSTRUCT_TOL:
        raise error(f"{what} by {deviation:.3e} (tol {_CONSTRUCT_TOL:.3e})")


def _admit_hermitian(m) -> np.ndarray:
    """The Hermitian part ``(m + m^dag) / 2`` of a finite square matrix ``m``
    (else InvalidArgument or DimensionMismatch) that is Hermitian within
    ``_CONSTRUCT_TOL`` (else NotHermitian). The result is Hermitian bit for bit."""
    arr = as_operator(m)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"matrix is not square: {arr.shape}")
    asymmetry = max_abs(arr - dagger(arr))
    if asymmetry > _CONSTRUCT_TOL:
        raise NotHermitian(
            f"matrix deviates from Hermitian symmetry by {asymmetry:.3e}"
            f" (tol {_CONSTRUCT_TOL:.3e})"
        )
    return (arr + dagger(arr)) / 2.0


@_public
def eig_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues sorted
    descending and eigenvectors as rows of an orthonormal ket list, so that
    ``m = sum_s w[s] |v_s><v_s|``. Ties keep the solver's deterministic
    ordering; vectors within a degenerate eigenspace are basis-arbitrary.

    The matrix is admitted Hermitian (the admission; else NotHermitian), and
    its Hermitian part is decomposed. Raises NumericalFailure if the
    eigensolver does not converge, and ResourceExhausted if one of its n x n
    arrays cannot be allocated.
    """
    hermitian = _admit_hermitian(m)
    try:
        w, v = np.linalg.eigh(hermitian)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    return w[order].astype(float), v[:, order].T.copy()


def _kept_rank(values: np.ndarray, rank_tol: float, what: str) -> int:
    """The one rank cutoff: the count of ``values`` above ``rank_tol``; InvalidArgument if 0."""
    rank = int(np.count_nonzero(values > rank_tol))
    if rank == 0:
        raise InvalidArgument(
            f"rank_tol {rank_tol:.3e} is not below the largest {what} {values.max():.3e}"
        )
    return rank


def _svd(m: np.ndarray, **options):
    """numpy's SVD of ``m`` with ``options``; NumericalFailure if it does not converge."""
    try:
        return np.linalg.svd(m, **options)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD failed: {exc}") from exc


def _at_unit_norm(values: np.ndarray, matrix: np.ndarray, degree: int = 1) -> np.ndarray:
    """The one normalization rule: ``values``, homogeneous of ``degree`` in a
    coefficient matrix (``as_matrix()`` or ``_amplitude_block``), scaled in
    place by ``||matrix||_F ** -degree``: the same values of the unit-norm matrix."""
    flat = matrix.ravel(order="K")  # a view unless the matrix is strided
    values *= np.vdot(flat, flat).real ** (-degree / 2)
    return values


def _state(matrix: np.ndarray) -> np.ndarray:
    """The unit-trace state ``m m^dag / ||m||_F^2`` of a coefficient matrix. A
    finite matrix whose squared norm is not a finite normal float is first
    scaled exactly, by the power of two of its largest entry; a zero one has none."""
    flat = matrix.ravel(order="K")
    if not _TINY <= np.vdot(flat, flat).real < math.inf:
        largest = max_abs(matrix)
        if 0.0 < largest < math.inf:  # 2**1024 overflows; 2**1023 lifts any subnormal
            matrix = matrix * np.ldexp(1.0, min(-np.frexp(largest)[1], 1023))
    return _at_unit_norm(matrix @ dagger(matrix), matrix, 2)


def _state_gap(matrix: np.ndarray, state: np.ndarray) -> float:
    """The one judge of "same state": the max-norm gap of a coefficient matrix's
    ``_state`` from ``state``, subtracted in place and freed on return."""
    difference = _state(matrix)
    return max_abs(np.subtract(difference, state, out=difference))


def _schmidt(matrix: np.ndarray, rank_tol: float):
    """The one Schmidt step: ``u, sv, vh`` of a coefficient matrix (full where
    ``dim_s < dim_m``: ``vh`` spans the ancilla), ``sv`` at unit norm, and its rank."""
    u, sv, vh = _svd(matrix, full_matrices=matrix.shape[0] < matrix.shape[1])
    sv = _at_unit_norm(sv, sv)  # ||sv|| is the matrix's norm
    return u, sv, vh, _kept_rank(sv**2, rank_tol, "squared Schmidt coefficient")


@_public
def tensor_ket(s, m) -> np.ndarray:
    """System-major tensor product: entry (i*dim_m + k) equals s[i]*m[k]."""
    return np.kron(as_ket(s), as_ket(m))


@dataclass(frozen=True, eq=False)
class JointState:
    """A normalized ket on the system-major product of two factors, of length
    ``dim_s * dim_m`` (else DimensionMismatch), admitted at unit norm (else
    NotNormalized)."""

    dim_s: int
    dim_m: int
    vec: np.ndarray

    @_public
    def __post_init__(self):
        dim_s = _check_integer("dim_s", self.dim_s, 1)
        dim_m = _check_integer("dim_m", self.dim_m, 1)
        vec = _checked(_convert(self.vec), 1, "vector")
        if vec.shape[0] != dim_s * dim_m:
            raise DimensionMismatch(
                f"joint ket has length {vec.shape[0]}, expected {dim_s}*{dim_m}={dim_s * dim_m}"
            )
        _admit_unit_norm(vec, "joint ket")
        object.__setattr__(self, "dim_s", dim_s)
        object.__setattr__(self, "dim_m", dim_m)
        object.__setattr__(self, "vec", vec)

    def as_matrix(self) -> np.ndarray:
        """The ket reshaped to (dim_s, dim_m); entry [i, k] pairs e_i with m_k."""
        return self.vec.reshape(self.dim_s, self.dim_m)

    @_public
    def reduced_system(self) -> np.ndarray:
        """Unit-trace reduced density matrix of the normalized ket on the system factor."""
        return _state(self.as_matrix())


@dataclass(frozen=True, eq=False)
class Ancilla:
    """An orthonormal ket list on the ancilla factor, one ket per element:
    at least one and at most ``dim_m`` (else DimensionMismatch), admitted
    orthonormal (else NotOrthonormal)."""

    dim_m: int
    kets: np.ndarray

    @_public
    def __post_init__(self):
        object.__setattr__(self, "dim_m", _check_integer("dim_m", self.dim_m, 1))
        kets = as_ket_list(self.kets, dim=self.dim_m)
        if not 0 < kets.shape[0] <= self.dim_m:
            raise DimensionMismatch(
                f"{kets.shape[0]} ancilla kets cannot fit in dimension {self.dim_m}"
                if kets.shape[0] else "an ancilla needs at least one ket"
            )
        _admit_orthonormal(kets, NotOrthonormal, "ancilla kets deviate from orthonormality")
        object.__setattr__(self, "kets", kets)


@dataclass(frozen=True, eq=False)
class SchmidtForm:
    """Bi-orthogonal expansion of a unit joint ket.

    ``coefficients`` are strictly positive, sorted descending, with squared sum 1
    whatever the cutoff dropped; ``left_kets`` / ``right_kets`` are orthonormal ket
    lists (rows) on the system / ancilla factors; ``rank`` is their common count.
    """

    coefficients: np.ndarray
    left_kets: np.ndarray
    right_kets: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.coefficients)


@_public
def schmidt_decompose(joint: JointState, rank_tol: float = DEFAULT_RANK_TOL) -> SchmidtForm:
    """Schmidt-decompose a joint state via SVD.

    The coefficients are those of the unit-norm joint (``_schmidt``), cut by the
    rank cutoff on their squares and normalized as the module docstring says,
    so their squares sum to 1 whatever the cutoff drops.
    """
    u, sv, vh, rank = _schmidt(joint.as_matrix(), rank_tol)
    return SchmidtForm(
        coefficients=sv[:rank] / np.sqrt(1.0 - np.vdot(sv[rank:], sv[rank:])),
        left_kets=u[:, :rank].T.copy(),
        right_kets=vh[:rank].copy(),
    )


@_public
def complete_orthonormal(ancilla: Ancilla) -> np.ndarray:
    """Extend an ancilla's kets to an orthonormal basis of its factor.

    The first ``k = len(ancilla.kets)`` rows of the result are the ancilla
    kets verbatim. The rest are Gram-Schmidt of the canonical basis vectors
    ``e_0..e_{d-k-1}`` (``d = ancilla.dim_m``), in index order, against the
    kets, computed as one Householder QR of the square matrix
    ``[kets^T | e_0..e_{d-k-1}]``: no candidate is skipped, and each
    completion vector overlaps its candidate positively. The result
    is deterministic and as orthonormal as the kets; a canonical prefix
    ``e_0..e_{k-1}`` completes to exactly the identity. A candidate (nearly)
    in the span of the kets and the earlier candidates gets a direction set
    by rounding. Raises ResourceExhausted if a ``d x d`` array cannot be
    allocated or numpy cannot represent its size.
    """
    kets, dim = ancilla.kets, ancilla.dim_m
    count = kets.shape[0]
    try:
        # Householder column j depends only on input columns 0..j, so
        # candidates past e_{d-k-1} would never reach Q: leave them out.
        candidates = np.eye(dim, dim - count)
        q, r = np.linalg.qr(np.concatenate([kets.T, candidates], axis=1))
    except ValueError as exc:
        raise _out_of_memory(f"completing {count} kets to dimension {dim}") from exc
    # Householder QR may flip a column's sign; undo that to match Gram-Schmidt.
    signs = np.where(r.diagonal()[count:].real < 0, -1.0, 1.0)
    return np.concatenate([kets, (q[:, count:] * signs).T])


@_public
def partial_trace_m(joint, dim_s: int, dim_m: int) -> np.ndarray:
    """Trace out the second (ancilla) factor of an operator on the joint space.

    ``joint`` is a square operator on the system-major product of a ``dim_s``
    and a ``dim_m`` factor (else DimensionMismatch, a ket included); returns
    the ``dim_s x dim_s`` reduced operator, with the trace of ``joint``. A
    joint ket's reduced state is ``JointState.reduced_system()``.
    """
    dim_s, dim_m = _check_integer("dim_s", dim_s, 1), _check_integer("dim_m", dim_m, 1)
    arr = _checked(_convert(joint), 2, "joint operator")
    total = dim_s * dim_m
    if arr.shape != (total, total):
        raise DimensionMismatch(
            f"joint operator has shape {arr.shape}, expected ({total}, {total})"
        )
    return np.einsum("ikjk->ij", arr.reshape(dim_s, dim_m, dim_s, dim_m))
