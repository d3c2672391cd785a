"""Exception hierarchy shared across the package."""


class BctsneError(Exception):
    """Base class for all package errors."""


class ValidationError(BctsneError):
    """Malformed or inconsistent input data."""


class DomainError(BctsneError):
    """Parameter outside its mathematically valid range."""


class CollinearityError(ValidationError):
    """Batch design is rank deficient.

    Attributes
    ----------
    columns : list of str
        Names of the dependent (absorbed) design columns.
    """

    def __init__(self, message, columns):
        super().__init__(message)
        self.columns = list(columns)


class OptimizerError(BctsneError):
    """Numerical failure during gradient descent.

    Attributes
    ----------
    iteration : int
        Iteration at which the failure was detected.
    """

    def __init__(self, message, iteration):
        super().__init__(message)
        self.iteration = iteration


class CalibrationWarning(UserWarning):
    """Bandwidth search ended with rows whose perplexity is off target."""
