"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage problems exit 2, data problems
exit 3, numerical failures exit 4.
"""


class MolpecoError(Exception):
    """Base class for all package errors."""


class DataError(MolpecoError):
    """Invalid or inconsistent input data (exit code 3)."""


class ParseError(DataError):
    """Malformed input file; message names the offending line."""


class ConflictError(DataError):
    """Duplicate molecule ids with irreconcilable contents."""


class GeometryError(DataError):
    """Degenerate molecular geometry (coincident atoms)."""


class ShapeError(MolpecoError):
    """Tensor or matrix shape mismatch; message names both shapes."""


class NumericError(MolpecoError):
    """Numerical failure: divergence, NaN gradients, no convergence
    (exit code 4)."""


class ConvergenceError(NumericError):
    """An iterative solver (LAPACK's symmetric eigensolver) did not
    converge."""


class UndefinedMetricError(MolpecoError):
    """Metric undefined for the given inputs (e.g. single-class labels);
    callers computing macro averages skip these descriptors."""
