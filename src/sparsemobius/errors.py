"""Exception types shared across the package."""

from __future__ import annotations


class SparseMobiusError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(SparseMobiusError, ValueError):
    """Operands have incompatible lengths or widths."""


class CapacityError(SparseMobiusError):
    """A documented size cap would be exceeded."""


class ParameterError(SparseMobiusError, ValueError):
    """An argument is outside its documented domain."""


class ValidationError(SparseMobiusError, ValueError):
    """Structured input violates an invariant (duplicates, zero weights, ...)."""


class FormatError(ValidationError):
    """A text file is malformed.  Carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InfeasiblePrefixError(SparseMobiusError):
    """An outcome string is not consistent with any vector of weight <= d."""


class ReconstructionError(SparseMobiusError):
    """A reconstruction run failed; carries the offending bin label if known."""

    def __init__(self, message: str, label: object | None = None):
        super().__init__(message)
        self.label = label
