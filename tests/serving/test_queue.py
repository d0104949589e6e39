"""Backpressure invariants of the bounded ingest queue.

Property-style over randomized arrival bursts (the satellite spec):

* ``block`` loses no entries — everything put is eventually got, in
  FIFO order, even with a slow consumer;
* ``drop_oldest`` and ``shed_newest`` keep the depth bounded by
  capacity for *any* arrival pattern;
* every drop is visible both on the instance counters and in the
  ``repro_serving_queue_dropped_total`` obs series.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.obs import get_registry
from repro.serving.queue import (
    POLICIES,
    BoundedQueue,
    QueueClosed,
    QueueEmpty,
    QueueFull,
)


def _drain_all(queue):
    items = []
    while True:
        try:
            items.append(queue.get(timeout=0.0))
        except (QueueEmpty, QueueClosed):
            return items


class TestValidation:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            BoundedQueue(0)

    def test_policy_validated(self):
        with pytest.raises(ValueError):
            BoundedQueue(4, policy="explode")

    def test_policies_constant_is_exhaustive(self):
        assert set(POLICIES) == {"block", "drop_oldest", "shed_newest"}


class TestBlockPolicy:
    def test_fifo_within_capacity(self):
        queue = BoundedQueue(8, policy="block", name="t-fifo")
        for i in range(5):
            queue.put(i)
        assert _drain_all(queue) == [0, 1, 2, 3, 4]

    def test_block_loses_nothing_under_random_bursts(self):
        """Producer bursts vs a deliberately slow consumer: every entry
        survives, in order."""
        rng = np.random.default_rng(0)
        queue = BoundedQueue(4, policy="block", name="t-block")
        n_items = 300
        consumed = []

        def consume():
            while len(consumed) < n_items:
                try:
                    consumed.append(queue.get(timeout=1.0))
                except QueueEmpty:  # pragma: no cover - timing slack
                    return

        thread = threading.Thread(target=consume)
        thread.start()
        sent = 0
        while sent < n_items:
            for _ in range(int(rng.integers(1, 20))):  # burst
                if sent >= n_items:
                    break
                queue.put(sent)  # blocks when full; must never drop
                sent += 1
        thread.join(timeout=10.0)
        assert consumed == list(range(n_items))
        assert queue.dropped == 0
        assert queue.enqueued == n_items

    def test_block_with_timeout_raises_full(self):
        queue = BoundedQueue(1, policy="block", name="t-timeout")
        queue.put("a")
        with pytest.raises(QueueFull):
            queue.put("b", timeout=0.01)
        # the queued entry is untouched
        assert queue.get(timeout=0.0) == "a"


class TestDropPolicies:
    @pytest.mark.parametrize("policy", ["drop_oldest", "shed_newest"])
    def test_depth_bounded_under_random_bursts(self, policy):
        rng = np.random.default_rng(1)
        capacity = 8
        queue = BoundedQueue(capacity, policy=policy, name=f"t-{policy}")
        put = 0
        for _ in range(50):
            for _ in range(int(rng.integers(1, 30))):
                queue.put(put)
                put += 1
                assert queue.depth <= capacity
            # drain a random amount
            for _ in range(int(rng.integers(0, 10))):
                try:
                    queue.get(timeout=0.0)
                except QueueEmpty:
                    break
        assert queue.depth <= capacity
        _drain_all(queue)
        if policy == "shed_newest":
            # rejected at the door: admitted + shed == offered
            assert queue.enqueued + queue.dropped == put
        else:
            # drop_oldest admits everything, evicting from the middle
            assert queue.enqueued == put

    def test_drop_oldest_keeps_newest(self):
        queue = BoundedQueue(3, policy="drop_oldest", name="t-oldkeep")
        for i in range(10):
            assert queue.put(i) is True  # always admitted
        assert _drain_all(queue) == [7, 8, 9]
        assert queue.dropped == 7

    def test_shed_newest_keeps_oldest(self):
        queue = BoundedQueue(3, policy="shed_newest", name="t-newkeep")
        results = [queue.put(i) for i in range(10)]
        assert results == [True] * 3 + [False] * 7
        assert _drain_all(queue) == [0, 1, 2]
        assert queue.dropped == 7

    def test_drops_counted_in_obs(self):
        dropped = get_registry().counter(
            "repro_serving_queue_dropped_total", labelnames=("queue", "policy")
        )
        enqueued = get_registry().counter(
            "repro_serving_queue_enqueued_total", labelnames=("queue",)
        )
        name = "t-obs-drops"
        before_d = dropped.labels(queue=name, policy="drop_oldest").value
        before_e = enqueued.labels(queue=name).value
        queue = BoundedQueue(2, policy="drop_oldest", name=name)
        for i in range(5):
            queue.put(i)
        assert dropped.labels(queue=name, policy="drop_oldest").value == before_d + 3
        assert enqueued.labels(queue=name).value == before_e + 5

    def test_depth_gauge_tracks(self):
        depth = get_registry().gauge(
            "repro_serving_queue_depth", labelnames=("queue",)
        )
        name = "t-obs-depth"
        queue = BoundedQueue(4, policy="block", name=name)
        queue.put("a")
        queue.put("b")
        assert depth.labels(queue=name).value == 2
        queue.get(timeout=0.0)
        assert depth.labels(queue=name).value == 1

    def test_handoffs_count_calls_that_returned_entries(self):
        """One hand-off per get_many that returned entries, however many
        it carried; enqueued grows by the entries one put_many admitted."""
        registry = get_registry()
        handoffs = registry.counter(
            "repro_serving_queue_handoffs_total", labelnames=("queue",)
        )
        enqueued = registry.counter(
            "repro_serving_queue_enqueued_total", labelnames=("queue",)
        )
        name = "t-obs-handoffs"
        before_h = handoffs.labels(queue=name).value
        before_e = enqueued.labels(queue=name).value
        queue = BoundedQueue(16, policy="block", name=name)
        assert queue.put_many(range(10)) == 10
        assert enqueued.labels(queue=name).value == before_e + 10
        assert queue.get_many(8, timeout=0.0) == list(range(8))
        assert queue.get_many(8, timeout=0.0) == [8, 9]
        with pytest.raises(QueueEmpty):
            queue.get_many(8, timeout=0.0)
        assert handoffs.labels(queue=name).value == before_h + 2


class TestClose:
    def test_put_after_close_raises(self):
        queue = BoundedQueue(2, name="t-close-put")
        queue.close()
        with pytest.raises(QueueClosed):
            queue.put("x")

    def test_close_drains_then_raises(self):
        queue = BoundedQueue(4, name="t-close-drain")
        queue.put("a")
        queue.put("b")
        queue.close()
        assert queue.get(timeout=0.0) == "a"
        assert queue.get(timeout=0.0) == "b"
        with pytest.raises(QueueClosed):
            queue.get(timeout=0.0)

    def test_close_wakes_blocked_getter(self):
        queue = BoundedQueue(2, name="t-close-wake")
        outcome = {}

        def wait():
            started = time.perf_counter()
            try:
                queue.get(timeout=5.0)
            except QueueClosed:
                outcome["closed_after"] = time.perf_counter() - started

        thread = threading.Thread(target=wait)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(timeout=5.0)
        assert outcome["closed_after"] < 4.0  # woke on close, not timeout
