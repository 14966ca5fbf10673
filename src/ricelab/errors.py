"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2, runtime
failures (singularities, capability gaps, degeneracies) exit 3, and a clean
run whose statistical verdict fails exits 1.  Each input rule has one
function, beside the code that reads the value, and one error: a malformed
document or a bad count or width is a ConfigurationError, a level outside
its model's domain a DomainError, and both exit 2.
"""


class RicelabError(Exception):
    """Base class for package errors."""


class ConfigurationError(RicelabError):
    """Malformed or out-of-contract inputs (bad JSON, unknown fields, bad shapes)."""


class DomainError(RicelabError):
    """Arguments outside a routine's mathematical domain (e.g. chi-square level u <= 0).

    Levels are checked by ``fields.level_value``.
    """


class CapabilityError(RicelabError):
    """Requested combination is outside the implemented scope."""


class SingularityError(RicelabError):
    """Evaluation at a genuine singularity of the field (e.g. a point mass)."""


class ModelError(RicelabError):
    """A model violates a structural requirement (e.g. degenerate variance)."""


class DegeneracyError(RicelabError):
    """A joint Gaussian law required to be nondegenerate is rank deficient."""
