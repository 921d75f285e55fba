"""Dense complex linear algebra primitives.

Conventions used throughout the package:

* Kets are 1-D complex ``numpy`` arrays; "ket lists" (bases, ancillae,
  eigenvector sets) are 2-D arrays with one ket per row.
* Tensor products are system-major: the flat index of ``s (x) m`` is
  ``i_S * dim_m + k_M``, which is exactly ``numpy.kron(s, m)``.
* Tolerances default to 1e-10 (symmetry / normalization checks) and 1e-10
  (rank cutoffs), both overridable per call.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    NotHermitian,
    NotNormalized,
    NotOrthonormal,
    NumericalFailure,
)

DEFAULT_TOL = 1e-10
DEFAULT_RANK_TOL = 1e-10


def _check_tolerances(**named) -> None:
    """Raise InvalidArgument unless every named tolerance is a finite real >= 0.

    ``0 <= value < inf`` is False for NaN and raises for values that are not
    real scalars (strings, complex numbers, arrays), all without a warning.
    """
    for name, value in named.items():
        try:
            valid = bool(0.0 <= value < math.inf)
        except (TypeError, ValueError):
            valid = False
        if not valid:
            raise InvalidArgument(
                f"{name} must be a finite non-negative number, got {value!r}"
            )


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


def as_ket(v) -> np.ndarray:
    """Coerce to a 1-D complex array, rejecting non-finite entries."""
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidArgument("vector contains non-finite entries")
    return arr


def as_operator(m) -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting non-finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.size < 1:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidArgument("matrix contains non-finite entries")
    return arr


def as_ket_list(kets, dim: int | None = None) -> np.ndarray:
    """Coerce a sequence of kets to a (count, dim) array; may be empty."""
    if isinstance(kets, np.ndarray) and kets.ndim == 2:
        arr = np.asarray(kets, dtype=complex)
    else:
        rows = [as_ket(k) for k in kets]
        if not rows:
            if dim is None:
                raise DimensionMismatch("cannot infer dimension of an empty ket list")
            return np.zeros((0, dim), dtype=complex)
        arr = np.stack(rows)
    if not np.isfinite(arr).all():
        raise InvalidArgument("ket list contains non-finite entries")
    if dim is not None and arr.shape[1] != dim:
        raise DimensionMismatch(
            f"ket list has dimension {arr.shape[1]}, expected {dim}"
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
    peak = float(np.max(np.abs(np.asarray(x)), initial=0.0))
    return np.inf if np.isnan(peak) else peak


def gram_matrix(kets: np.ndarray) -> np.ndarray:
    """Pairwise inner products G[i, j] = <k_i|k_j> for a row-stacked ket list."""
    return np.conj(kets) @ kets.T


def orthonormality_deviation(kets: np.ndarray) -> float:
    """Max-norm distance of a ket list's Gram matrix from the identity; 0 when empty."""
    return max_abs(gram_matrix(kets) - np.eye(kets.shape[0]))


def is_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Max-norm symmetry check ||m - m^dag||_max <= tol."""
    return max_abs(m - dagger(m)) <= tol


def eig_hermitian(m, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues sorted
    descending and eigenvectors as rows of an orthonormal ket list, so that
    ``m = sum_s w[s] |v_s><v_s|``. Ties keep the solver's deterministic
    ordering; vectors within a degenerate eigenspace are basis-arbitrary.

    Raises NotHermitian if the symmetry check fails at ``tol``, and
    NumericalFailure if the eigensolver does not converge.
    """
    _check_tolerances(tol=tol)
    arr = as_operator(m)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"matrix is not square: {arr.shape}")
    if not is_hermitian(arr, tol):
        raise NotHermitian(
            f"matrix deviates from Hermitian symmetry by {max_abs(arr - dagger(arr)):.3e}"
            f" (tol {tol:.3e})"
        )
    try:
        w, v = np.linalg.eigh((arr + dagger(arr)) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    return w[order].astype(float), v[:, order].T.copy()


def numerical_rank(eigenvalues, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count of spectrum entries strictly above the rank cutoff."""
    return int(np.sum(np.asarray(eigenvalues, dtype=float) > rank_tol))


def complete_orthonormal(
    partial, target_dim: int, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Extend an orthonormal ket list to a full orthonormal basis.

    The first ``len(partial)`` rows of the result are the input vectors
    verbatim. The rest are Gram-Schmidt of the canonical basis vectors,
    taken by index, against the input, computed as one Householder QR of
    ``[partial^T | I]``: the first ``target_dim - len(partial)`` candidates
    are used, none is skipped, and each completion vector overlaps its
    candidate positively. The result is deterministic and unitary to working
    precision; a canonical prefix ``e_0..e_{k-1}`` (or no input) completes
    to exactly the identity. A candidate (nearly) in the span of the input
    and the earlier candidates gets a direction set by rounding, so callers
    that care put the candidates least aligned with the input first (as
    ``ensemble_containing`` does).

    Raises NotOrthonormal if the input is not pairwise orthonormal at ``tol``
    and DimensionMismatch if its vectors are not of dimension ``target_dim``
    or it already has more than ``target_dim`` of them.
    """
    _check_tolerances(tol=tol)
    target_dim = _check_integer("target_dim", target_dim, 1)
    kets = as_ket_list(partial, dim=target_dim)
    count = kets.shape[0]
    if count > target_dim:
        raise DimensionMismatch(
            f"{count} vectors cannot be orthonormal in dimension {target_dim}"
        )
    deviation = orthonormality_deviation(kets)
    if deviation > tol:
        raise NotOrthonormal(
            f"input vectors deviate from orthonormality by {deviation:.3e}"
            f" (tol {tol:.3e})"
        )
    q, r = np.linalg.qr(np.concatenate([kets.T, np.eye(target_dim)], axis=1))
    # Householder QR may flip a column's sign; undo that to match Gram-Schmidt.
    signs = np.where(np.diag(r)[count:].real < 0, -1.0, 1.0)
    return np.concatenate([kets, (q[:, count:] * signs).T])


def tensor_ket(s, m) -> np.ndarray:
    """System-major tensor product: entry (i*dim_m + k) equals s[i]*m[k]."""
    return np.kron(as_ket(s), as_ket(m))


def partial_trace_m(joint, dim_s: int, dim_m: int) -> np.ndarray:
    """Trace out the second (ancilla) factor of a joint ket or operator.

    Accepts either a joint ket of length ``dim_s * dim_m`` or a square
    operator on the product space; returns the ``dim_s x dim_s`` reduced
    operator. For a ket input this is the reduced state of ``|v><v|``.
    """
    arr = np.asarray(joint, dtype=complex)
    total = dim_s * dim_m
    if arr.ndim == 1:
        if arr.shape[0] != total:
            raise DimensionMismatch(
                f"joint ket has length {arr.shape[0]}, expected {dim_s}*{dim_m}={total}"
            )
        a = arr.reshape(dim_s, dim_m)
        return a @ dagger(a)
    if arr.ndim == 2:
        if arr.shape != (total, total):
            raise DimensionMismatch(
                f"joint operator has shape {arr.shape}, expected ({total}, {total})"
            )
        return np.einsum("ikjk->ij", arr.reshape(dim_s, dim_m, dim_s, dim_m))
    raise DimensionMismatch(f"expected a ket or square operator, got ndim={arr.ndim}")


@dataclass(frozen=True, eq=False)
class SchmidtForm:
    """Bi-orthogonal expansion of a normalized joint ket.

    ``coefficients`` are strictly positive and sorted descending with
    squared sum 1; ``left_kets`` / ``right_kets`` are orthonormal ket lists
    (rows) on the system / ancilla factors; ``rank`` is their common count.
    """

    coefficients: np.ndarray
    left_kets: np.ndarray
    right_kets: np.ndarray
    rank: int


def schmidt_decompose(
    joint,
    dim_s: int,
    dim_m: int,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_TOL,
) -> SchmidtForm:
    """Schmidt-decompose a normalized joint ket via SVD.

    Coefficients with squared value at or below ``rank_tol`` are treated as
    zero and dropped, so the returned rank equals the numerical rank of the
    squared-coefficient spectrum.
    """
    _check_tolerances(rank_tol=rank_tol, tol=tol)
    vec = as_ket(joint)
    total = dim_s * dim_m
    if vec.shape[0] != total:
        raise DimensionMismatch(
            f"joint ket has length {vec.shape[0]}, expected {dim_s}*{dim_m}={total}"
        )
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > tol:
        raise NotNormalized(f"joint ket has norm {norm!r}, expected 1 (tol {tol:.3e})")
    try:
        u, sv, vh = np.linalg.svd(vec.reshape(dim_s, dim_m), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD failed: {exc}") from exc
    rank = numerical_rank(sv**2, rank_tol)
    if rank == 0:
        raise NumericalFailure("normalized ket produced an empty Schmidt spectrum")
    return SchmidtForm(
        coefficients=sv[:rank].astype(float),
        left_kets=u[:, :rank].T.copy(),
        right_kets=vh[:rank].copy(),
        rank=rank,
    )


def schmidt_reconstruct(form: SchmidtForm) -> np.ndarray:
    """Rebuild the joint ket sum_s c_s (p_s (x) a_s) from a SchmidtForm."""
    return ((form.left_kets.T * form.coefficients) @ form.right_kets).reshape(-1)
