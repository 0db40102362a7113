"""Resilience primitives for the solve service: circuit breaker, deadlines.

The service's learned component — the batched HGT forward pass — is the
one stage with no soundness obligation: the paper's selector chooses
between two *always-correct* deletion policies, so skipping inference
degrades solve **effort**, never solve **answers**.  This module makes
that guarantee operational:

* :class:`CircuitBreaker` guards the inference path with the classic
  CLOSED → OPEN → HALF_OPEN state machine.  Failures (raised forward
  passes, timed-out passes, optionally *slow* passes) are counted over
  a rolling sample window; past a failure-rate threshold the breaker
  opens and every request bypasses inference, receiving the default
  policy immediately with ``degraded=true``.  After a cooldown the
  breaker admits a bounded number of half-open *probe* batches — a
  probe failure reopens, enough probe successes close.

* :func:`clamp_conflicts_to_deadline` turns a request's remaining wall
  clock into the conflict budget it can afford, via a configured
  conflicts-per-second rate.  (The service also clamps the
  supervisor's per-attempt wall budget to it, so no worker outlives
  its request.)

The breaker takes an injectable monotonic clock so the full state
machine is unit-testable without a single ``sleep``.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.observer import NULL_OBSERVER, Observer


class BreakerState(enum.Enum):
    """Where the breaker currently sits (see module docs)."""

    CLOSED = "CLOSED"        # normal operation; failures are counted
    OPEN = "OPEN"            # inference bypassed; cooling down
    HALF_OPEN = "HALF_OPEN"  # bounded probes decide recovery vs reopen


#: Gauge encoding of the breaker state (``serve.breaker_state``):
#: healthy states are low, the tripped state is the peak.
BREAKER_STATE_GAUGE: Dict[BreakerState, int] = {
    BreakerState.CLOSED: 0,
    BreakerState.HALF_OPEN: 1,
    BreakerState.OPEN: 2,
}


@dataclass(frozen=True)
class BreakerConfig:
    """Thresholds of one :class:`CircuitBreaker`.

    ``slow_seconds`` is the latency threshold: a forward pass slower
    than it counts as a failure even though it returned — a stalling
    model is as harmful to tail latency as a crashing one.
    """

    #: Rolling sample window (most recent forward-pass outcomes).
    window: int = 16
    #: Minimum samples in the window before the rate is trusted.
    min_samples: int = 4
    #: Failure rate in the window at which the breaker opens.
    failure_threshold: float = 0.5
    #: Latency past which a *successful* pass still counts as a failure.
    slow_seconds: Optional[float] = None
    #: Seconds the breaker stays OPEN before admitting probes.
    cooldown_seconds: float = 5.0
    #: Probe batches allowed in flight while HALF_OPEN.
    half_open_probes: int = 1
    #: Consecutive probe successes required to close again.
    recovery_successes: int = 2

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.min_samples < 1 or self.min_samples > self.window:
            raise ValueError("min_samples must be in [1, window]")
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if self.slow_seconds is not None and self.slow_seconds <= 0:
            raise ValueError("slow_seconds must be positive")
        if self.cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be non-negative")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        if self.recovery_successes < 1:
            raise ValueError("recovery_successes must be >= 1")


class CircuitBreaker:
    """CLOSED → OPEN → HALF_OPEN breaker over a rolling failure window.

    The caller's contract is three calls:

    * :meth:`allow` before attempting the guarded operation — ``False``
      means bypass it (serve the degraded fallback);
    * :meth:`record_success` / :meth:`record_failure` after each
      attempt that :meth:`allow` admitted.

    Every transition is appended to :attr:`transitions`, emitted as a
    ``breaker-transition`` trace event, and mirrored into the
    ``serve.breaker_state`` gauge (0 closed, 1 half-open, 2 open).
    """

    def __init__(
        self,
        config: Optional[BreakerConfig] = None,
        observer: Observer = NULL_OBSERVER,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or BreakerConfig()
        self.observer = observer
        self.clock = clock
        self.state = BreakerState.CLOSED
        #: (from_state, to_state, reason) history, oldest first.
        self.transitions: List[Tuple[str, str, str]] = []
        #: Requests turned away by :meth:`allow` (OPEN or probe-budget).
        self.short_circuits = 0
        self._samples: Deque[bool] = deque(maxlen=self.config.window)
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self._gauge = observer.gauge("serve.breaker_state")
        self._gauge.set(BREAKER_STATE_GAUGE[self.state])

    # -- the guard ---------------------------------------------------------

    def allow(self) -> bool:
        """True when the guarded operation may be attempted now."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if (
                self.clock() - self._opened_at
                >= self.config.cooldown_seconds
            ):
                self._transition(BreakerState.HALF_OPEN, "cooldown elapsed")
            else:
                self.short_circuits += 1
                return False
        # HALF_OPEN: admit a bounded number of concurrent probes.
        if self._probes_in_flight < self.config.half_open_probes:
            self._probes_in_flight += 1
            return True
        self.short_circuits += 1
        return False

    # -- outcome reporting -------------------------------------------------

    def record_success(self, seconds: float = 0.0) -> None:
        """Report one admitted attempt that returned a result."""
        slow = self.config.slow_seconds
        if slow is not None and seconds > slow:
            self.record_failure(f"slow ({seconds:.3g}s > {slow:.3g}s)")
            return
        if self.state is BreakerState.HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._probe_successes += 1
            if self._probe_successes >= self.config.recovery_successes:
                self._samples.clear()
                self._transition(
                    BreakerState.CLOSED,
                    f"{self._probe_successes} probe successes",
                )
            return
        if self.state is BreakerState.CLOSED:
            self._samples.append(False)

    def record_failure(self, reason: str = "failure") -> None:
        """Report one admitted attempt that raised, hung, or timed out."""
        if self.state is BreakerState.HALF_OPEN:
            # One failed probe is enough: the dependency is still sick.
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._open(f"probe failed: {reason}")
            return
        if self.state is BreakerState.OPEN:
            return  # a straggler finishing after the trip; nothing new
        self._samples.append(True)
        if len(self._samples) >= self.config.min_samples:
            rate = sum(self._samples) / len(self._samples)
            if rate >= self.config.failure_threshold:
                self._open(
                    f"failure rate {rate:.2f} >= "
                    f"{self.config.failure_threshold:.2f} "
                    f"over {len(self._samples)} samples ({reason})"
                )

    # -- state plumbing ----------------------------------------------------

    def _open(self, reason: str) -> None:
        self._opened_at = self.clock()
        self._transition(BreakerState.OPEN, reason)

    def _transition(self, state: BreakerState, reason: str) -> None:
        previous = self.state
        self.state = state
        if state is BreakerState.HALF_OPEN:
            self._probes_in_flight = 0
            self._probe_successes = 0
        self.transitions.append((previous.value, state.value, reason))
        self._gauge.set(BREAKER_STATE_GAUGE[state])
        self.observer.event(
            "breaker-transition",
            from_state=previous.value,
            to_state=state.value,
            reason=reason,
        )

    # -- introspection -----------------------------------------------------

    def failure_rate(self) -> float:
        """Failure fraction of the current rolling window (0 if empty)."""
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def stats(self) -> Dict[str, object]:
        """JSON-able snapshot for ``/healthz`` and chaos reports."""
        return {
            "state": self.state.value,
            "failure_rate": round(self.failure_rate(), 4),
            "samples": len(self._samples),
            "short_circuits": self.short_circuits,
            "transitions": len(self.transitions),
        }


# ---------------------------------------------------------------------------
# Deadline propagation


def clamp_conflicts_to_deadline(
    max_conflicts: int,
    remaining_seconds: float,
    conflicts_per_second: float,
) -> int:
    """Conflict budget affordable within the remaining wall clock.

    The rate is a service-level calibration knob, not a measurement —
    the point is that a request with 100 ms left never receives a
    million-conflict budget whose attempt the supervisor would only
    kill later.  The result is floored at 1 (a budget of 0 is not a
    legal solver input).
    """
    if remaining_seconds <= 0:
        return 1
    affordable = int(remaining_seconds * conflicts_per_second)
    return max(1, min(max_conflicts, affordable))
