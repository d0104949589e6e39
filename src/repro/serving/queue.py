"""Bounded ingest queues with selectable backpressure policies.

An online inference service sits between an unbounded producer (the
packet tap) and a finite consumer (the shard workers).  The queue in
between must have a *policy* for the moment it fills, and the right one
depends on the deployment:

``block``
    Lossless: the producer waits for space.  Right for replay and for
    upstream taps that can themselves buffer.  Invariant: every
    accepted entry is eventually consumed — nothing is dropped.
``drop_oldest``
    Bounded staleness: evict the oldest queued entry to admit the new
    one.  Right for live monitoring where a fresh entry is worth more
    than a stale one.  Invariant: depth never exceeds capacity and the
    newest entries survive.
``shed_newest``
    Bounded work: reject the new entry outright (``put`` returns
    ``False``).  Right when admission control should push loss to the
    edge.  Invariant: depth never exceeds capacity and queued entries
    are never evicted.

Entries cross a queue in batches: :meth:`BoundedQueue.put_many` and
:meth:`BoundedQueue.get_many` move any number of entries for one lock
hold, one wake-up and one depth-gauge write, and ``put``/``get`` are
their one-entry case.  Entries a consumer has taken are in flight, not
queued: they live in the consumer (a shard worker's pulled batch, a
socket shard's send batch), so ``drop_oldest`` cannot evict them and a
consumer that dies must account for them itself.

Every enqueue, drop, hand-off and the live depth are instrumented
through :mod:`repro.obs` (``repro_serving_queue_*``), labelled by queue
name, so overload is visible on the Prometheus endpoint before it
becomes a diagnosis gap; enqueued over hand-offs is how many entries
each hand-off carried.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Iterable, Optional

from repro.obs import get_registry

__all__ = [
    "POLICIES",
    "QueueClosed",
    "QueueFull",
    "QueueEmpty",
    "BoundedQueue",
]

POLICIES = ("block", "drop_oldest", "shed_newest")

_REG = get_registry()
_ENQUEUED = _REG.counter(
    "repro_serving_queue_enqueued_total",
    "Entries accepted into a serving ingest queue.",
    labelnames=("queue",),
)
_HANDOFFS = _REG.counter(
    "repro_serving_queue_handoffs_total",
    "Dequeue calls that handed entries to a consumer; enqueued over "
    "hand-offs is the entries each hand-off carried.",
    labelnames=("queue",),
)
_DROPPED = _REG.counter(
    "repro_serving_queue_dropped_total",
    "Entries lost to backpressure, by queue and policy.",
    labelnames=("queue", "policy"),
)
_DEPTH = _REG.gauge(
    "repro_serving_queue_depth",
    "Current depth of a serving ingest queue.",
    labelnames=("queue",),
)


class QueueClosed(Exception):
    """The queue was closed; no further puts, and gets have drained it."""


class QueueFull(Exception):
    """A ``block``-policy put timed out waiting for space."""


class QueueEmpty(Exception):
    """A get timed out with no entry available."""


class BoundedQueue:
    """Thread-safe bounded FIFO with an explicit overflow policy.

    Parameters
    ----------
    capacity:
        Maximum queued entries (>= 1).
    policy:
        One of :data:`POLICIES`; see the module docstring.
    name:
        Label for the observability series (e.g. ``"shard3"``).
    """

    def __init__(
        self, capacity: int, policy: str = "block", name: str = "default"
    ) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown backpressure policy {policy!r}; use one of {POLICIES}"
            )
        self.capacity = capacity
        self.policy = policy
        self.name = name
        self._items: Deque = deque()
        self._cond = threading.Condition()
        self._closed = False
        #: Instance-level mirrors of the obs counters, so tests and
        #: health snapshots need no registry delta arithmetic.
        self.enqueued = 0
        self.dropped = 0
        self._depth_gauge = _DEPTH.labels(queue=name)
        self._enqueued_counter = _ENQUEUED.labels(queue=name)
        self._handoff_counter = _HANDOFFS.labels(queue=name)
        self._dropped_counter = _DROPPED.labels(queue=name, policy=policy)

    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        with self._cond:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def _publish(self, admitted: int, dropped: int) -> None:
        # Caller holds the lock.  One counter bump, one gauge write and
        # one wake-up for everything a call admitted since it last
        # published.  notify_all, not notify: producers and consumers
        # share one condition, so a single wakeup could land on the
        # wrong side and strand a blocked peer.
        if dropped:
            self.dropped += dropped
            self._dropped_counter.inc(dropped)
        if admitted:
            self.enqueued += admitted
            self._enqueued_counter.inc(admitted)
            self._depth_gauge.set(len(self._items))
            self._cond.notify_all()

    def put(self, item, timeout: Optional[float] = None) -> bool:
        """Enqueue one entry under the configured policy.

        Returns ``True`` if the entry was admitted, ``False`` if it was
        shed (``shed_newest`` only).  Raises :class:`QueueClosed` after
        :meth:`close`, and :class:`QueueFull` if a ``block`` put times
        out (``timeout=None`` blocks indefinitely).
        """
        return self.put_many((item,), timeout) == 1

    def put_many(self, items: Iterable, timeout: Optional[float] = None) -> int:
        """Enqueue entries in order, in one lock hold; returns how many
        were admitted.

        The outcome is that of :meth:`put` on each entry in turn,
        stopped at the first exception: ``shed_newest`` sheds what does
        not fit, ``drop_oldest`` evicts for each arrival, and a
        ``block`` call waits for space, for at most ``timeout`` seconds
        in all.  The exception is raised only when it hits the first
        entry; a later one (the timeout, or a :meth:`close` while
        waiting) ends the call, and the return value tells the caller
        how many leading entries went in.
        """
        total = published = dropped = 0
        deadline = None
        queued = self._items
        with self._cond:
            if self._closed:
                raise QueueClosed(f"queue {self.name!r} is closed")
            try:
                for item in items:
                    if len(queued) >= self.capacity:
                        if self.policy == "shed_newest":
                            dropped += 1
                            continue
                        if self.policy == "drop_oldest":
                            queued.popleft()
                            dropped += 1
                        else:
                            # block: consumers must see what is queued
                            # before this producer sleeps on space.
                            self._publish(total - published, dropped)
                            published, dropped = total, 0
                            if deadline is None and timeout is not None:
                                deadline = time.monotonic() + timeout
                            try:
                                self._await_space(deadline, timeout)
                            except (QueueClosed, QueueFull):
                                if total:
                                    break
                                raise
                    queued.append(item)
                    total += 1
            finally:
                self._publish(total - published, dropped)
        return total

    def _await_space(
        self, deadline: Optional[float], timeout: Optional[float]
    ) -> None:
        # Caller holds the lock.  Returns once there is room.
        space = self._cond.wait_for(
            lambda: self._closed or len(self._items) < self.capacity,
            timeout=None if deadline is None else deadline - time.monotonic(),
        )
        if self._closed:
            raise QueueClosed(f"queue {self.name!r} is closed")
        if not space:
            raise QueueFull(
                f"queue {self.name!r} full after {timeout}s (block policy)"
            )

    def get(self, timeout: Optional[float] = None):
        """Dequeue the oldest entry.

        Blocks up to ``timeout`` seconds (``None`` = forever).  Raises
        :class:`QueueEmpty` on timeout and :class:`QueueClosed` once the
        queue is closed *and* fully drained — the consumer's signal to
        shut down without losing queued entries.
        """
        return self.get_many(1, timeout)[0]

    def get_many(self, max_items: int, timeout: Optional[float] = None) -> list:
        """Dequeue up to ``max_items`` oldest entries, in one lock hold.

        Waits like :meth:`get` for the first entry, then takes what is
        queued behind it without waiting.  The entries returned are the
        consumer's: no policy can evict them any more.
        """
        if max_items < 1:
            raise ValueError("max_items must be >= 1")
        with self._cond:
            items = self._items
            if not items:
                self._cond.wait_for(
                    lambda: self._items or self._closed, timeout=timeout
                )
                if not items:
                    if self._closed:
                        raise QueueClosed(
                            f"queue {self.name!r} is closed and drained"
                        )
                    raise QueueEmpty(
                        f"queue {self.name!r}: nothing within {timeout}s"
                    )
            if len(items) <= max_items:
                batch = list(items)
                items.clear()
            else:
                batch = [items.popleft() for _ in range(max_items)]
            self._handoff_counter.inc()
            self._depth_gauge.set(len(items))
            self._cond.notify_all()
            return batch

    def drain_remaining(self) -> list:
        """Atomically remove and return everything still queued.

        The circuit-breaker path: when a shard is declared
        non-restartable its queue has entries nobody will ever consume.
        They are handed back (the supervisor quarantines them in the
        dead-letter queue) instead of leaking — and blocked ``block``
        -policy producers are released by the space this frees.
        """
        with self._cond:
            items = list(self._items)
            self._items.clear()
            self._depth_gauge.set(0)
            self._cond.notify_all()
        return items

    def close(self) -> None:
        """Refuse further puts; queued entries remain gettable."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
