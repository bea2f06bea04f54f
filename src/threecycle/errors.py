"""Exception types shared across the package."""


class PermutationError(ValueError):
    """The input is not a valid permutation (or cannot be parsed as one)."""


class MembershipError(ValueError):
    """A permutation fails the class precondition of an operation."""


class ResourceLimitError(RuntimeError):
    """An exhaustive-search request exceeds the configured size bounds."""


class InternalInvariantError(RuntimeError):
    """A structural guarantee was violated; indicates a bug, not bad input."""


#: Python's default limit on the digits of an int turned into text
#: (``sys.int_info.default_max_str_digits``).  A closed-form count whose answer
#: would have more digits is refused before it is computed.
MAX_DIGITS = 4300
