"""Dense complex linear algebra primitives.

Conventions used throughout the package:

* Kets are 1-D complex ``numpy`` arrays; "ket lists" (bases, ancillae,
  eigenvector sets) are 2-D arrays with one ket per row.
* Tensor products are system-major: the flat index of ``s (x) m`` is
  ``i_S * dim_m + k_M``, which is exactly ``numpy.kron(s, m)``.
* A caller's kets, ket lists and probability vectors are admitted at the one
  fixed ``_CONSTRUCT_TOL``. Tolerances default to 1e-10 (hypotheses, equalities
  and predicates) and 1e-10 (rank cutoffs), both overridable per call.
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

# The one admission threshold of every ket, ket list and probability vector a
# caller hands rhokit, whatever tolerances a call takes. It is looser than the
# per-operation tolerances so that round-tripped values are never rejected.
_CONSTRUCT_TOL = 1e-8


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
            f"{name} must be a {cls.__name__}, got {type(value).__name__}"
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


def _admit_hermitian(m, tol: float) -> np.ndarray:
    """The Hermitian part ``(m + m^dag) / 2`` of a finite square matrix ``m``
    (else InvalidArgument or DimensionMismatch) that is Hermitian within ``tol``
    (else NotHermitian). The result is Hermitian bit for bit."""
    arr = as_operator(m)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"matrix is not square: {arr.shape}")
    asymmetry = max_abs(arr - dagger(arr))
    if asymmetry > tol:
        raise NotHermitian(
            f"matrix deviates from Hermitian symmetry by {asymmetry:.3e} (tol {tol:.3e})"
        )
    return (arr + dagger(arr)) / 2.0


@_public
def eig_hermitian(m, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues sorted
    descending and eigenvectors as rows of an orthonormal ket list, so that
    ``m = sum_s w[s] |v_s><v_s|``. Ties keep the solver's deterministic
    ordering; vectors within a degenerate eigenspace are basis-arbitrary.

    Raises NotHermitian if the symmetry check fails at ``tol``,
    NumericalFailure if the eigensolver does not converge, and
    ResourceExhausted if one of its n x n arrays cannot be allocated.
    """
    hermitian = _admit_hermitian(m, tol)
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


@_public
def complete_orthonormal(partial, target_dim: int) -> np.ndarray:
    """Extend an orthonormal ket list to a full orthonormal basis.

    The first ``k = len(partial)`` rows of the result are the input vectors
    verbatim. The rest are Gram-Schmidt of the canonical basis vectors
    ``e_0..e_{d-k-1}`` (``d = target_dim``), in index order, against the
    input, computed as one Householder QR of the square matrix
    ``[partial^T | e_0..e_{d-k-1}]``: no candidate is skipped, and each
    completion vector overlaps its candidate positively. A full input
    (``k == d``) is returned as a copy without any factorization. The result
    is deterministic and as orthonormal as its input; a canonical prefix
    ``e_0..e_{k-1}`` (or no input) completes to exactly the identity. A
    candidate (nearly) in the span of the input and the earlier candidates
    gets a direction set by rounding.

    Raises NotOrthonormal unless the input is within 1e-8 of orthonormal, as
    ``Ancilla`` admits its kets, DimensionMismatch if its vectors are not of
    dimension ``target_dim`` or it already has more than ``target_dim`` of
    them, and ResourceExhausted
    if a ``target_dim``-sized array cannot be allocated or numpy cannot
    represent its size.
    """
    target_dim = _check_integer("target_dim", target_dim, 1)
    kets = as_ket_list(partial, dim=target_dim)
    count = kets.shape[0]
    if count > target_dim:
        raise DimensionMismatch(
            f"{count} vectors cannot be orthonormal in dimension {target_dim}"
        )
    _admit_orthonormal(kets, NotOrthonormal, "input vectors deviate from orthonormality")
    if count == target_dim:
        return kets.copy()
    try:
        # Householder column j depends only on input columns 0..j, so
        # candidates past e_{d-k-1} would never reach Q: leave them out.
        candidates = np.eye(target_dim, target_dim - count)
        q, r = np.linalg.qr(np.concatenate([kets.T, candidates], axis=1))
    except ValueError as exc:
        raise _out_of_memory(f"completing {count} kets to dimension {target_dim}") from exc
    # Householder QR may flip a column's sign; undo that to match Gram-Schmidt.
    signs = np.where(r.diagonal()[count:].real < 0, -1.0, 1.0)
    return np.concatenate([kets, (q[:, count:] * signs).T])


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
    """The unit-trace state ``m m^dag / ||m||_F^2`` of a coefficient matrix."""
    return _at_unit_norm(matrix @ dagger(matrix), matrix, 2)


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


def _joint_ket(joint, dim_s, dim_m, noun: str = "vector", unit: bool = True):
    """The one joint-ket gate: ``(vec, dim_s, dim_m)`` once both dimensions are
    integers >= 1, ``joint`` is a finite 1-D ket (``noun`` in those errors) of
    length ``dim_s * dim_m`` and, if ``unit``, within 1e-8 of unit norm."""
    dim_s, dim_m = _check_integer("dim_s", dim_s, 1), _check_integer("dim_m", dim_m, 1)
    vec = _checked(_convert(joint), 1, noun)
    total = dim_s * dim_m
    if vec.shape[0] != total:
        raise DimensionMismatch(
            f"joint ket has length {vec.shape[0]}, expected {dim_s}*{dim_m}={total}"
        )
    if unit:
        _admit_unit_norm(vec, "joint ket")
    return vec, dim_s, dim_m


@_public
def partial_trace_m(joint, dim_s: int, dim_m: int) -> np.ndarray:
    """Trace out the second (ancilla) factor of a joint ket or operator.

    Accepts either a joint ket of length ``dim_s * dim_m`` or a square
    operator on the product space; returns the ``dim_s x dim_s`` reduced
    operator. For a ket input this is the reduced state of ``|v><v|``.
    """
    dim_s, dim_m = _check_integer("dim_s", dim_s, 1), _check_integer("dim_m", dim_m, 1)
    arr = _convert(joint)
    if arr.ndim == 1:
        a = _joint_ket(arr, dim_s, dim_m, "joint ket", unit=False)[0].reshape(dim_s, dim_m)
        return a @ dagger(a)
    if arr.ndim == 2:
        total = dim_s * dim_m
        if _checked(arr, 2, "joint operator").shape != (total, total):
            raise DimensionMismatch(
                f"joint operator has shape {arr.shape}, expected ({total}, {total})"
            )
        return np.einsum("ikjk->ij", arr.reshape(dim_s, dim_m, dim_s, dim_m))
    raise DimensionMismatch(f"expected a ket or square operator, got ndim={arr.ndim}")


@dataclass(frozen=True, eq=False)
class SchmidtForm:
    """Bi-orthogonal expansion of a unit joint ket.

    ``coefficients`` are strictly positive and sorted descending with
    squared sum 1; ``left_kets`` / ``right_kets`` are orthonormal ket lists
    (rows) on the system / ancilla factors; ``rank`` is their common count.
    """

    coefficients: np.ndarray
    left_kets: np.ndarray
    right_kets: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.coefficients)


@_public
def schmidt_decompose(
    joint,
    dim_s: int,
    dim_m: int,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> SchmidtForm:
    """Schmidt-decompose a unit joint ket via SVD.

    The norm is admitted as ``JointState`` admits it (else NotNormalized), and
    the coefficients are those of the unit-norm joint (``_schmidt``). Those with
    squared value at or below ``rank_tol`` are dropped, so the returned rank is
    the numerical rank of the squared-coefficient spectrum, and a cutoff that
    drops them all raises InvalidArgument.
    """
    vec, dim_s, dim_m = _joint_ket(joint, dim_s, dim_m)
    u, sv, vh, rank = _schmidt(vec.reshape(dim_s, dim_m), rank_tol)
    return SchmidtForm(
        coefficients=sv[:rank].astype(float),
        left_kets=u[:, :rank].T.copy(),
        right_kets=vh[:rank].copy(),
    )
