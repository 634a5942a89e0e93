"""Oracle retry layer: timeouts, capped backoff, typed failure.

The paper's cost model treats the oracle as a slow, expensive, *human or
heavyweight-model* labeling service (Table 5) — exactly the kind of
dependency that fails transiently in production.  A retried oracle call
must never change results (labels are deterministic per record) and
must never double-charge the label budget (a failed call reveals no
labels, so nothing was paid for).  This module provides the wrapper
that makes both properties hold mechanically:

- :class:`TransientOracleError` — what a flaky oracle (or the fault
  harness, :mod:`repro.faults`) raises when a call *may* be retried.
- :class:`OracleUnavailableError` — the typed permanent failure raised
  once the retry policy is exhausted; callers (the service, the
  pipeline) surface it on exactly the queries that needed the draw.
- :class:`RetryPolicy` — declarative knobs: per-call retry cap, a
  per-attempt timeout, capped exponential backoff with *deterministic*
  jitter (seeded, so two runs of the same workload back off
  identically), and an optional total retry budget accounted
  separately from the label budget.
- :class:`RetryingOracle` — wraps any label function.  It sits *below*
  :class:`~repro.oracle.base.BudgetedOracle` and below the label
  column of the lookup :meth:`repro.core.pipeline.SampleStore.labeler`
  builds, so retries happen before any budget, cache or column
  bookkeeping: a draw that eventually succeeds charges its labels
  exactly once, a draw that never succeeds charges nothing.

Only :class:`TransientOracleError` and per-attempt timeouts are
retried.  Every other exception (``BudgetExhaustedError``, label-shape
errors, user-UDF bugs) propagates unchanged — retrying a deterministic
failure only burns time.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "TransientOracleError",
    "OracleUnavailableError",
    "CircuitOpenError",
    "RetryPolicy",
    "RetryingOracle",
    "OracleCircuitBreaker",
]


class TransientOracleError(RuntimeError):
    """The oracle failed in a way that is safe to retry."""


class OracleUnavailableError(RuntimeError):
    """The oracle kept failing after the retry policy was exhausted.

    Attributes:
        attempts: total calls made (initial try plus retries).
    """

    def __init__(self, message: str, attempts: int = 0) -> None:
        super().__init__(message)
        self.attempts = attempts


class CircuitOpenError(OracleUnavailableError):
    """Failed fast: the oracle circuit breaker is open.

    Subclasses :class:`OracleUnavailableError` so existing "oracle is
    down" handling (the service's typed ``QueryError`` wrapping, chaos
    gates) applies unchanged; carries backpressure hints on top.

    Attributes:
        retry_after: seconds until the breaker will allow a half-open
            probe.
        failures: consecutive oracle failures that tripped the breaker.
    """

    def __init__(
        self, message: str, retry_after: float = 0.0, failures: int = 0
    ) -> None:
        super().__init__(message, attempts=0)
        self.retry_after = retry_after
        self.failures = failures


class OracleCircuitBreaker:
    """Trip after N consecutive oracle failures; fail fast while open.

    When the oracle is *down* (every call raising until the retry
    policy exhausts), letting each queued draw burn its full retry
    budget turns one dependency outage into minutes of head-of-line
    blocking.  The breaker converts that into fast, typed failures:

    - **closed** — normal operation.  :meth:`record_failure` after each
      draw that exhausted its retries; ``threshold`` *consecutive*
      failures trip the breaker (any success resets the count).
    - **open** — :meth:`check` raises :class:`CircuitOpenError`
      immediately (no oracle contact) until ``cooldown_s`` has passed.
    - **half-open** — after the cooldown, :meth:`check` admits exactly
      one caller as a probe (returns ``True``); its
      :meth:`record_success` closes the breaker, its
      :meth:`record_failure` re-opens it for a fresh cooldown.  A probe
      that turns out not to touch the oracle at all (e.g. a window
      served entirely from warm draws) must call :meth:`abstain` so the
      probe slot is released.

    Thread-safe; shared by every window of a service.  ``clock`` is
    injectable (monotonic seconds) so tests advance time explicitly.
    """

    def __init__(
        self,
        threshold: int = 5,
        cooldown_s: float = 30.0,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if cooldown_s <= 0:
            raise ValueError(f"cooldown_s must be positive, got {cooldown_s}")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = time.monotonic if clock is None else clock
        self._lock = threading.Lock()
        self._consecutive = 0
        self._opened_at: float | None = None
        self._probing = False
        self.tripped_total = 0
        self.fast_failures = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half_open"``."""
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at < self.cooldown_s:
            return "open"
        return "half_open"

    def check(self) -> bool:
        """Gate one oracle-touching operation.

        Returns ``False`` when closed (proceed normally) or ``True``
        when this caller holds the half-open probe slot (proceed, and
        *must* later call :meth:`record_success`,
        :meth:`record_failure`, or :meth:`abstain`).

        Raises:
            CircuitOpenError: the breaker is open (or another caller
                already holds the probe); fail fast without touching
                the oracle.
        """
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                return False
            if state == "half_open" and not self._probing:
                self._probing = True
                return True
            self.fast_failures += 1
            remaining = max(
                0.0, self.cooldown_s - (self._clock() - self._opened_at)
            )
            raise CircuitOpenError(
                f"oracle circuit breaker open after {self._consecutive} "
                f"consecutive failures; retry in {remaining:.1f}s",
                retry_after=remaining,
                failures=self._consecutive,
            )

    def record_success(self) -> None:
        """A genuine oracle call succeeded: close the breaker."""
        with self._lock:
            self._consecutive = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        """A draw exhausted its retries: count it, maybe trip/re-open."""
        with self._lock:
            self._probing = False
            self._consecutive += 1
            if self._opened_at is not None:
                # Half-open probe failed: re-open for a fresh cooldown.
                self._opened_at = self._clock()
            elif self._consecutive >= self.threshold:
                self._opened_at = self._clock()
                self.tripped_total += 1

    def abstain(self) -> None:
        """The gated operation never touched the oracle; release the probe."""
        with self._lock:
            self._probing = False

    def snapshot(self) -> dict:
        """State summary for health endpoints."""
        with self._lock:
            return {
                "state": self._state_locked(),
                "consecutive_failures": self._consecutive,
                "tripped_total": self.tripped_total,
                "fast_failures": self.fast_failures,
            }


@dataclass(frozen=True)
class RetryPolicy:
    """How a :class:`RetryingOracle` responds to transient failures.

    Attributes:
        retries: maximum retries per ``query()`` call (0 disables
            retrying but keeps timeout detection).
        timeout: per-attempt wall-clock limit in seconds; a call that
            exceeds it counts as a transient failure.  ``None`` waits
            forever (no watchdog thread is spawned).
        backoff: base delay before the first retry, in seconds.
        backoff_cap: upper bound on any single delay (the exponential
            doubling stops here).
        jitter: fraction of each delay randomized symmetrically around
            it, drawn from a generator seeded with ``seed`` — the
            backoff sequence is deterministic per oracle instance.
        seed: jitter stream seed.
        retry_budget: optional cap on *total* retries across the
            oracle's lifetime, accounted separately from the label
            budget; exceeding it raises
            :class:`OracleUnavailableError`.
    """

    retries: int = 3
    timeout: float | None = None
    backoff: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    retry_budget: int | None = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be non-negative, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive or None, got {self.timeout}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be non-negative, got {self.backoff}")
        if self.backoff_cap < 0:
            raise ValueError(f"backoff_cap must be non-negative, got {self.backoff_cap}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.retry_budget is not None and self.retry_budget < 0:
            raise ValueError(
                f"retry_budget must be non-negative or None, got {self.retry_budget}"
            )


class RetryingOracle:
    """Retry wrapper around a labeling function.

    Args:
        label_fn: maps an array of record indices to an array of 0/1
            labels; may raise :class:`TransientOracleError` or hang.
        policy: the retry configuration.

    Counters (:attr:`attempts`, :attr:`retries_used`,
    :attr:`seconds_waiting`) expose the retry accounting the chaos
    gates assert on — label accounting is untouched by design, since
    this wrapper sits below every budget/cache layer.
    """

    def __init__(self, label_fn: Callable[[np.ndarray], np.ndarray], policy: RetryPolicy) -> None:
        self._label_fn = label_fn
        self.policy = policy
        self._rng = np.random.default_rng(policy.seed)
        self.attempts = 0
        self.retries_used = 0
        self.seconds_waiting = 0.0

    def query(self, indices: np.ndarray) -> np.ndarray:
        """Label the given indices, retrying transient failures.

        Raises:
            OracleUnavailableError: the per-call retry cap or the total
                retry budget was exhausted without a successful call.
            Exception: any non-transient error from ``label_fn``,
                unchanged and unretried.
        """
        failures = 0
        while True:
            self.attempts += 1
            try:
                return self._attempt(indices)
            except TransientOracleError as exc:
                failures += 1
                if failures > self.policy.retries:
                    raise OracleUnavailableError(
                        f"oracle still failing after {failures - 1} retries: {exc}",
                        attempts=failures,
                    ) from exc
                if (
                    self.policy.retry_budget is not None
                    and self.retries_used >= self.policy.retry_budget
                ):
                    raise OracleUnavailableError(
                        f"oracle retry budget of {self.policy.retry_budget} exhausted: {exc}",
                        attempts=failures,
                    ) from exc
                self.retries_used += 1
                delay = self._backoff(failures)
                if delay > 0.0:
                    time.sleep(delay)
                    self.seconds_waiting += delay

    def _backoff(self, failure_number: int) -> float:
        """Capped exponential delay with deterministic symmetric jitter."""
        base = min(
            self.policy.backoff_cap, self.policy.backoff * (2.0 ** (failure_number - 1))
        )
        if base <= 0.0:
            return 0.0
        spread = self.policy.jitter * (2.0 * self._rng.uniform() - 1.0)
        return base * (1.0 + spread)

    def _attempt(self, indices: np.ndarray) -> np.ndarray:
        """One oracle call, bounded by the policy's timeout.

        The timeout runs the call on a watchdog daemon thread; a call
        that overruns is *abandoned* (its thread finishes in the
        background and its result is discarded) and reported as
        transient.  Abandonment is safe here because label lookups are
        read-only and idempotent per record.
        """
        if self.policy.timeout is None:
            return self._label_fn(indices)
        box: dict[str, object] = {}
        done = threading.Event()

        def run() -> None:
            try:
                box["result"] = self._label_fn(indices)
            except BaseException as exc:  # re-raised on the caller thread
                box["error"] = exc
            finally:
                done.set()

        worker = threading.Thread(target=run, name="oracle-call", daemon=True)
        worker.start()
        if not done.wait(self.policy.timeout):
            raise TransientOracleError(
                f"oracle call timed out after {self.policy.timeout}s"
            )
        if "error" in box:
            raise box["error"]  # type: ignore[misc]
        return box["result"]  # type: ignore[return-value]
