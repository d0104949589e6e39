"""Shard partitioning stability and single-worker equivalence."""

from __future__ import annotations

import time

import pytest

from repro.realtime.monitor import RealTimeMonitor
from repro.realtime.tracker import OnlineSessionTracker
from repro.serving.models import ModelManager
from repro.serving.queue import BoundedQueue
from repro.serving.shard import ShardSpec, ShardWorker, shard_index

from tests.serving.conftest import diagnosis_multiset


class TestShardIndex:
    def test_deterministic(self):
        assert shard_index("sub-0001", 4) == shard_index("sub-0001", 4)

    def test_in_range(self):
        for n_shards in (1, 2, 4, 7):
            for i in range(100):
                assert 0 <= shard_index(f"sub-{i:04d}", n_shards) < n_shards

    def test_known_values_are_stable(self):
        """CRC32 partition must never change between runs or versions —
        a silent change would re-home subscribers across restarts."""
        assert shard_index("sub-0000", 4) == 0
        assert shard_index("alice", 4) == 3
        assert shard_index("bob", 4) == 0

    def test_roughly_balanced(self):
        counts = [0, 0, 0, 0]
        for i in range(400):
            counts[shard_index(f"sub-{i:04d}", 4)] += 1
        # no shard should be empty or hog everything
        assert min(counts) > 40
        assert max(counts) < 200

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_index("x", 0)


class TestShardWorker:
    def _make_worker(self, framework, **kwargs):
        return ShardWorker(
            index=0,
            models=ModelManager(framework),
            queue=BoundedQueue(256, name="t-worker"),
            spec=ShardSpec(max_batch=8, max_delay_s=0.05),
            **kwargs,
        )

    def test_single_worker_matches_serial_monitor(
        self, serving_framework, serving_trace
    ):
        """One worker fed the whole trace == one serial monitor."""
        serial = RealTimeMonitor(
            serving_framework, tracker=OnlineSessionTracker()
        )
        serial.feed_many(serving_trace)
        serial.drain()

        worker = self._make_worker(serving_framework)
        worker.start()
        for entry in serving_trace:
            worker.queue.put(entry)
        worker.queue.close()
        worker.join(timeout=30.0)
        assert not worker.alive
        assert worker.error is None

        assert diagnosis_multiset(worker.diagnoses) == diagnosis_multiset(
            serial.diagnoses
        )
        assert worker.entries_processed == len(serving_trace)

    def test_worker_flushes_open_sessions_on_close(
        self, serving_framework, serving_trace
    ):
        """Closing the queue mid-trace still diagnoses what was queued,
        including sessions the tracker had not yet idled out."""
        worker = self._make_worker(serving_framework)
        worker.start()
        subset = serving_trace[: len(serving_trace) // 2]
        for entry in subset:
            worker.queue.put(entry)
        worker.queue.close()
        worker.join(timeout=30.0)
        assert worker.error is None
        assert worker.entries_processed == len(subset)
        # every record the tracker saw was diagnosed: nothing pending
        assert worker.batcher.pending == 0
        assert worker.monitor.tracker.open_sessions == 0
        assert len(worker.diagnoses) > 0

    def test_deadline_releases_batch_without_more_traffic(
        self, serving_framework, serving_trace
    ):
        """A partial batch must be diagnosed after max_delay_s even when
        the queue goes quiet — no drain, no size trigger."""
        worker = ShardWorker(
            index=0,
            models=ModelManager(serving_framework),
            # max_batch far above the trace's session count: only the
            # deadline can ever release a batch here.
            queue=BoundedQueue(8192, name="t-deadline"),
            spec=ShardSpec(max_batch=1000, max_delay_s=0.05),
        )
        worker.start()
        for entry in serving_trace:
            worker.queue.put(entry)
        deadline = time.perf_counter() + 10.0
        while not worker.diagnoses and time.perf_counter() < deadline:
            time.sleep(0.02)
        assert worker.diagnoses, "deadline trigger never diagnosed the batch"
        worker.queue.close()
        worker.join(timeout=30.0)
        assert worker.error is None
