"""Exception types shared across the package.

Every validation failure raises a subclass of :class:`LoccError`, so callers
(and the CLI) can distinguish bad input from a genuine negative verdict.
"""

from __future__ import annotations


class LoccError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(LoccError):
    """Operands have incompatible shapes or dimensions."""


class NonSquare(LoccError):
    """A square matrix was required."""


class NonUnitary(LoccError):
    """A matrix failed the unitarity check."""


class NotCoisometry(LoccError):
    """W @ W.conj().T differs from the identity."""


class NotPermutation(LoccError):
    """Input is not a permutation (as a matrix or an image list)."""


class NotOrthogonalStates(LoccError):
    """The input states are not mutually orthogonal."""


class NotAnAlgebra(LoccError):
    """The operator system is not closed under multiplication."""


class InvalidPovm(LoccError):
    """POVM elements are not PSD or do not sum to the identity."""


class InvalidProtocol(LoccError):
    """A one-way measurement protocol violates its normalization rules."""


class InvalidCertificate(LoccError):
    """A distinguishability certificate fails its structural checks."""


class SamplingFailed(LoccError):
    """Randomized sampling exhausted its retry budget.

    This signals tolerance or conditioning trouble, not a mathematical
    impossibility: the existence test said yes but no sampled witness passed.
    """


class ZeroVector(LoccError):
    """A nonzero vector of finite norm was required."""


class NotSpanning(LoccError):
    """A family of vectors fails to span the space it must span."""


class BadDimension(LoccError):
    """A dimension argument is out of the supported range."""


class BadLabel(LoccError):
    """A Pauli label string contains characters outside I/X/Y/Z."""


class BadParams(LoccError):
    """Parameters violate a documented constraint (e.g. k > n)."""


class VertexCountMismatch(LoccError):
    """Two graphs that must share a vertex set do not."""


class TooLarge(LoccError):
    """The instance exceeds the size bound of an exact solver."""


class DecompositionFailed(LoccError):
    """The block decomposition did not reach a consistent accounting."""


class FileFormatError(LoccError):
    """A JSON input file does not match the documented schema."""
