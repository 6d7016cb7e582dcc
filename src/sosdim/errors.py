"""Exception types shared across the package."""


class SosdimError(Exception):
    """Base class for all package errors."""


class InvalidInputError(SosdimError, ValueError):
    """Input violates a precondition (shape, finiteness, range, config)."""


class LagTooLargeError(InvalidInputError):
    """Requested lag is not smaller than the series length."""


class NearSingularCovarianceError(SosdimError, ArithmeticError):
    """Covariance eigenvalue fell below the numerical floor."""


class CsvParseError(InvalidInputError):
    """CSV input could not be parsed; carries 1-based row/column (or None)."""

    def __init__(self, row, col, message):
        self.row = row
        self.col = col
        where = f"row {row}" if col is None else f"row {row}, column {col}"
        super().__init__(f"{where}: {message}")
