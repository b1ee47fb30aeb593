"""Exception hierarchy shared across the package."""


class TxpackError(Exception):
    """Base class for all txpack errors."""


class ValidationError(TxpackError):
    """Bad input data: malformed mempool files, invalid parameters."""


class ZeroLatencyError(ValidationError):
    """Raised when lambda = 0 is passed to the closed-form solver.

    The marginal formula divides by lambda; callers wanting the
    zero-latency limit should use the greedy best response instead.
    """

    def __init__(self):
        super().__init__("zero-latency regime; use limit behavior (greedy top-k)")


class MempoolFitsInBlock(TxpackError):
    """Total mempool capacity is below the block capacity.

    ``base_fee`` and ``solve_xhat`` raise it, and ``txpack basefee`` exits 1
    on it. ``solve_equilibrium`` never raises it: a mempool that fits in one
    block gets the all-ones profile.
    """


class InvariantViolation(TxpackError):
    """An internal mathematical identity failed to hold within tolerance."""


class RejectionBudgetExceeded(TxpackError):
    """The rejection sampler ran out of attempts."""

    def __init__(self, attempts):
        self.attempts = attempts
        super().__init__(f"no accepted draw in {attempts} attempts")
