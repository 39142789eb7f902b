"""Exception types and size caps shared across the toolkit.

Everything in this package enumerates subsets of a finite ground set, so
costs grow like 2^n (subsets) or 4^n (pairs of subsets). A cap bounds a
table that is built or a sweep over every pair, and nothing else. A
basic proximity lives in a 2^n-entry neighbourhood table, bounded by the
ground-set cap alone. A relation that is not basic settles on a dense
4^n-bit matrix; a table's is bounded by its listed pairs, and the one
derived from it, the axiom report read off either, and the sweeps over
every strongly-far pair or pair of opens by DEFAULT_EXHAUSTIVE_CAP.
Per-pair witness searches (at most 2^n candidates) have no cap.
"""

# Ground sets larger than this are rejected at construction time.
MAX_GROUND_POINTS = 16

# Above this many points the axiom report on a dense matrix, the dense
# matrix of a relation derived from one with no point rows, and the
# sweeps over every strongly-far pair (up to 3^n) or pair of opens
# refuse to run. Only `check_axioms` takes it as a keyword.
DEFAULT_EXHAUSTIVE_CAP = 10

# Maximum number of hyperpoints (nonempty closed sets) in CL(X).
DEFAULT_HYPER_CAP = 4096


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class CapExceededError(ToolkitError):
    """An exhaustive operation was asked to run beyond its size cap."""

    def __init__(self, operation: str, size: int, cap: int):
        self.operation = operation
        self.size = size
        self.cap = cap
        super().__init__(f"{operation}: size {size} exceeds cap {cap}")


class InvalidTopologyError(ToolkitError):
    """The open family is not a topology; carries the failing report."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"open family is not a topology: {report.summary()}")


class NotOpenError(ToolkitError):
    """A subbase generator was given a set that is not open."""


class HyperspaceMismatchError(ToolkitError):
    """Two hyperspace bases do not live over the same enumerated CL(X)."""


class InvalidModelError(ToolkitError):
    """A model description failed validation; `where` names the field."""

    def __init__(self, message: str, where: str = ""):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)
