"""Exception hierarchy shared across the package, and its warnings."""
import os
import sys
import warnings

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


class BctsneError(Exception):
    """Base class for all package errors."""


class ValidationError(BctsneError):
    """Malformed or inconsistent data, files or settings: the root of every
    fault in what a caller passes."""


class DomainError(ValidationError):
    """A setting not an integer where one is needed, or out of its range."""


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

    def __reduce__(self):  # Exception's passes args alone, without columns
        return type(self), (str(self), self.columns)


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

    def __reduce__(self):  # Exception's passes args alone, without iteration
        return type(self), (str(self), self.iteration)


class CalibrationWarning(UserWarning):
    """Bandwidth search ended with rows whose perplexity is off target."""


def _warn_caller(message, category):
    """warnings.warn attributed to the first caller outside this package, so
    filters keyed on the caller's module match whichever bctsne function it
    called."""
    frame, stacklevel = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, stacklevel = frame.f_back, stacklevel + 1
    warnings.warn(message, category, stacklevel=stacklevel)
