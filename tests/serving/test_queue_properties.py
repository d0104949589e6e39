"""Property tests for BoundedQueue: close/drain semantics, batch calls.

The process-shard router leans on one contract hard: the parent-side
queue is closed at drain time while ``block``-policy producers may
still be waiting for space, and the pipe pump keeps consuming until
``get`` raises ``QueueClosed``.  For that hand-off to be lossless the
queue must guarantee, under arbitrary producer/consumer interleavings:

* a ``put`` that returns normally means the entry IS delivered to a
  consumer (no loss);
* a ``put`` that raises ``QueueClosed`` means the entry is NOT
  delivered (no duplication, and the producer knows to re-route);
* ``close`` wakes every blocked producer promptly (no deadlock);
* consumers see every admitted entry exactly once, then
  ``QueueClosed`` once the backlog is drained.

Hypothesis drives the shape (capacity, producer count, stream
lengths, when the closer fires); threads provide the interleaving.

The serving threads hand entries over with ``put_many``/``get_many``;
those must be nothing but the single-item calls batched.  For every
policy, a random interleaving of single and batch calls on one queue
must give the same results as the same interleaving spelled with
single calls on another.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.serving.queue import BoundedQueue, QueueClosed, QueueEmpty, QueueFull


@st.composite
def _scenarios(draw):
    capacity = draw(st.integers(min_value=1, max_value=4))
    n_producers = draw(st.integers(min_value=1, max_value=4))
    per_producer = draw(st.integers(min_value=1, max_value=25))
    # Close after this many consumed items (possibly mid-stream, with
    # producers still blocked on a full queue).
    close_after = draw(
        st.integers(min_value=0, max_value=n_producers * per_producer)
    )
    return capacity, n_producers, per_producer, close_after


@settings(max_examples=25, deadline=None)
@given(_scenarios())
def test_no_loss_no_duplication_across_close(scenario):
    capacity, n_producers, per_producer, close_after = scenario
    queue = BoundedQueue(capacity=capacity, policy="block", name="prop")

    accepted = [set() for _ in range(n_producers)]
    rejected = [set() for _ in range(n_producers)]

    def produce(pid: int) -> None:
        for i in range(per_producer):
            item = (pid, i)
            try:
                queue.put(item)
            except QueueClosed:
                # Not admitted — and everything later in this stream is
                # refused too; record and stop like the router's submit
                # path does.
                rejected[pid].update((pid, j) for j in range(i, per_producer))
                return
            accepted[pid].add(item)

    consumed = []
    closed_seen = threading.Event()

    def consume() -> None:
        while True:
            try:
                consumed.append(queue.get(timeout=0.05))
            except QueueEmpty:
                continue
            except QueueClosed:
                closed_seen.set()
                return
            if len(consumed) == close_after and not queue.closed:
                queue.close()

    producers = [
        threading.Thread(target=produce, args=(pid,))
        for pid in range(n_producers)
    ]
    consumer = threading.Thread(target=consume)
    for thread in producers:
        thread.start()
    consumer.start()
    for thread in producers:
        thread.join(timeout=10.0)
    # All producers have returned (admitted or refused) — nothing can
    # block forever across a close.
    assert not any(t.is_alive() for t in producers), "producer deadlocked"
    if not queue.closed:
        queue.close()
    consumer.join(timeout=10.0)
    assert closed_seen.is_set(), "consumer never saw QueueClosed"

    all_accepted = set().union(*accepted)
    all_rejected = set().union(*rejected)
    counts = Counter(consumed)
    # Exactly-once delivery of everything admitted...
    assert set(counts) == all_accepted
    assert all(c == 1 for c in counts.values()), "duplicated entries"
    # ...and nothing that was refused ever surfaces.
    assert not all_rejected & set(counts)
    assert all_accepted | all_rejected == {
        (pid, i) for pid in range(n_producers) for i in range(per_producer)
    }


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=3))
def test_close_releases_blocked_producers(capacity):
    """close() while puts are waiting: every waiter raises QueueClosed."""
    queue = BoundedQueue(capacity=capacity, policy="block", name="prop2")
    for i in range(capacity):
        queue.put(("fill", i))

    outcomes = []
    barrier = threading.Barrier(3)

    def blocked_put(tag: str) -> None:
        barrier.wait()
        try:
            queue.put(("late", tag))
            outcomes.append(("admitted", tag))
        except QueueClosed:
            outcomes.append(("closed", tag))

    threads = [
        threading.Thread(target=blocked_put, args=(str(i),)) for i in range(2)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()          # both producers past the gate, heading into put
    queue.close()
    for thread in threads:
        thread.join(timeout=5.0)
    assert not any(t.is_alive() for t in threads), "blocked put never woke"
    assert [kind for kind, _ in outcomes] == ["closed", "closed"]
    # The pre-close backlog is still fully drainable.
    drained = [queue.get(timeout=0.1) for _ in range(capacity)]
    assert drained == [("fill", i) for i in range(capacity)]
    try:
        queue.get(timeout=0.05)
        raise AssertionError("expected QueueClosed after drain")
    except QueueClosed:
        pass


# ----------------------------------------------------------------------
# Batch calls: put_many / get_many are the single-item calls, batched
# ----------------------------------------------------------------------


def _single_put_many(queue, items, timeout):
    """``put_many`` spelled as single puts: stop at the first exception,
    raise it only if it hit the first entry."""
    admitted = 0
    for position, item in enumerate(items):
        try:
            admitted += queue.put(item, timeout=timeout)
        except (QueueClosed, QueueFull):
            if position == 0:
                raise
            break
    return admitted


def _single_get_many(queue, max_items, timeout):
    """``get_many`` spelled as single gets: wait for the first, then take
    what is already queued."""
    batch = [queue.get(timeout=timeout)]
    while len(batch) < max_items:
        try:
            batch.append(queue.get(timeout=0))
        except (QueueEmpty, QueueClosed):
            break
    return batch


def _outcome(call):
    try:
        return ("returned", call())
    except (QueueClosed, QueueEmpty, QueueFull) as exc:
        return ("raised", type(exc).__name__)


_ops = st.one_of(
    st.tuples(st.just("put"), st.integers(0, 999)),
    st.tuples(
        st.just("put_many"), st.lists(st.integers(0, 999), min_size=1, max_size=7)
    ),
    st.tuples(st.just("get"), st.none()),
    st.tuples(st.just("get_many"), st.integers(1, 6)),
    st.tuples(st.just("close"), st.none()),
)


@settings(max_examples=150, deadline=None)
@given(
    policy=st.sampled_from(["block", "drop_oldest", "shed_newest"]),
    capacity=st.integers(1, 5),
    ops=st.lists(_ops, max_size=40),
)
def test_batch_calls_match_single_item_calls(policy, capacity, ops):
    """Any interleaving of single and batch calls on one queue matches the
    same interleaving spelled with single calls on another: same return
    values and exceptions, same items in the same order, same counts."""
    batched = BoundedQueue(capacity, policy=policy, name="prop-batch")
    single = BoundedQueue(capacity, policy=policy, name="prop-single")
    # Zero timeouts: a block put on a full queue raises QueueFull at
    # once, a get on an empty one raises QueueEmpty at once.
    for kind, arg in ops:
        if kind == "put":
            got = _outcome(lambda: batched.put(arg, timeout=0))
            want = _outcome(lambda: single.put(arg, timeout=0))
        elif kind == "put_many":
            got = _outcome(lambda: batched.put_many(arg, timeout=0))
            want = _outcome(lambda: _single_put_many(single, arg, 0))
        elif kind == "get":
            got = _outcome(lambda: batched.get(timeout=0))
            want = _outcome(lambda: single.get(timeout=0))
        elif kind == "get_many":
            depth, closed = batched.depth, batched.closed
            got = _outcome(lambda: batched.get_many(arg, timeout=0))
            want = _outcome(lambda: _single_get_many(single, arg, 0))
            if got == ("raised", "QueueClosed"):
                assert closed and depth == 0
            elif got == ("raised", "QueueEmpty"):
                assert not closed and depth == 0
            else:
                assert len(got[1]) == min(arg, depth)
        else:
            batched.close()
            single.close()
            got = want = None
        assert got == want, (kind, arg)
        assert batched.depth == single.depth
    assert (batched.enqueued, batched.dropped) == (single.enqueued, single.dropped)
    assert batched.drain_remaining() == single.drain_remaining()


@settings(max_examples=15, deadline=None)
@given(capacity=st.integers(1, 4), extra=st.integers(1, 6))
def test_one_get_many_wakes_a_blocked_producer(capacity, extra):
    """A block producer waiting on a full queue is woken by a single
    get_many, and a put_many larger than the queue completes as the
    consumer takes batches, in order."""
    queue = BoundedQueue(capacity, policy="block", name="prop-wake")
    items = list(range(capacity + extra))
    admitted = []
    producer = threading.Thread(
        target=lambda: admitted.append(queue.put_many(items, timeout=10.0))
    )
    producer.start()
    assert _eventually(lambda: queue.depth == capacity)
    consumed = queue.get_many(capacity, timeout=1.0)
    assert consumed == items[:capacity]
    while len(consumed) < len(items):
        consumed.extend(queue.get_many(capacity, timeout=5.0))
    producer.join(timeout=5.0)
    assert not producer.is_alive(), "blocked put_many never woke"
    assert admitted == [len(items)]
    assert consumed == items


def test_put_many_returns_what_went_in_before_a_timeout():
    """A block put_many that runs out of time after admitting some
    entries returns their count; with none admitted it raises."""
    queue = BoundedQueue(3, policy="block", name="prop-partial")
    assert queue.put_many(range(5), timeout=0.01) == 3
    try:
        queue.put_many([9], timeout=0.01)
        raise AssertionError("expected QueueFull on a full queue")
    except QueueFull:
        pass
    assert queue.get_many(10, timeout=0) == [0, 1, 2]


def _eventually(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return predicate()
