"""Exception types shared across the package."""


class ArgBayesError(Exception):
    """Base class for all package errors."""

    exit_code = 2  # of the command line; 1 is left to usage errors


class InputError(ArgBayesError, ValueError):
    """Invalid argument index, subset, or assignment."""


class CapacityError(ArgBayesError):
    """Problem size exceeds the configured enumeration cap."""

    exit_code = 3


class DegenerateEvidenceError(ArgBayesError):
    """Total unnormalized posterior mass is zero: every attack relation of
    nonzero prior gives some observation a zero likelihood factor."""

    exit_code = 4


class SchemaError(ArgBayesError, ValueError):
    """Input file violates the documented schema."""


class ParseError(SchemaError):
    """Input file is not syntactically valid; message carries location."""


class ConfigError(ArgBayesError, ValueError):
    """Run configuration missing or invalid; message names the key."""


class PlanError(ArgBayesError, ValueError):
    """Cross-validation split plan is infeasible for the dataset."""
