"""Exception hierarchy shared by every rhokit module.

The CLI maps these onto its exit-code contract: malformed documents exit 2,
violated preconditions exit 3, solver breakdowns and failed allocations
exit 4.
"""

from __future__ import annotations


class RhokitError(Exception):
    """Base class for all library errors."""


class DocumentError(RhokitError):
    """A JSON document is malformed or does not match its declared kind."""


class InvalidArgument(RhokitError, ValueError):
    """An argument value is out of range: non-finite, negative, or not a density."""


class DimensionMismatch(RhokitError):
    """Operands have incompatible shapes or dimensions."""


class NotHermitian(RhokitError):
    """A matrix required to be Hermitian fails the symmetry check."""


class NotNormalized(RhokitError):
    """A state vector required to have unit norm does not."""


class NotOrthonormal(RhokitError):
    """A vector list required to be pairwise orthonormal is not."""


class NotOrthonormalBasis(RhokitError):
    """A vector list required to be a complete orthonormal basis is not."""


class NotUnitary(RhokitError):
    """A matrix required to be unitary is not."""


class NumericalFailure(RhokitError):
    """An underlying numerical routine failed to converge or lost precision."""


class ResourceExhausted(RhokitError, MemoryError):
    """An allocation sized by a caller's dimension could not be made."""


class InvalidEnsemble(RhokitError):
    """A weighted-ket ensemble violates its structural invariants."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DensitiesDiffer(RhokitError):
    """Two ensembles or joint states do not share one state on the system side."""


class OrderExceedsAncillaDim(RhokitError):
    """An ensemble has more elements than the ancilla space has dimensions."""


class NotInSupport(RhokitError):
    """A target vector lies outside the support of the reduced density matrix."""


class WeightsNotNormalized(RhokitError):
    """A probability vector does not sum to one."""
