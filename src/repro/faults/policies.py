"""How the stack responds to transient faults: a bounded read-retry budget.

Real storage stacks re-issue failed page reads a small, bounded number of
times (the controller's read-retry tables do exactly this on
raw-bit-error spikes). :class:`RetryPolicy` models that budget. The
device counts the retries it absorbed (``QueryStats.read_retries``); the
wait between them is not modelled on the simulated clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StorageError


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry budget for transient read faults.

    ``max_attempts`` counts the initial try plus retries (so 4 means up
    to 3 re-reads).
    """

    max_attempts: int = 4

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise StorageError("retry policy needs at least one attempt")

    @property
    def max_retries(self) -> int:
        """Retries available after the first attempt."""
        return self.max_attempts - 1


#: The device default: one initial read plus three re-reads.
DEFAULT_RETRY_POLICY = RetryPolicy()
