"""Tests for the event queue."""

import math

import numpy as np
import pytest

from repro.sim.events import Event, EventQueue


class TestEventQueue:
    def test_orders_by_timestamp(self):
        queue = EventQueue()
        queue.schedule(5.0, kind="later")
        queue.schedule(1.0, kind="sooner")
        assert queue.pop().kind == "sooner"
        assert queue.pop().kind == "later"

    def test_ties_broken_by_priority(self):
        queue = EventQueue()
        queue.schedule(1.0, kind="low", priority=5)
        queue.schedule(1.0, kind="high", priority=0)
        assert queue.pop().kind == "high"

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        queue.schedule(1.0, kind="first")
        queue.schedule(1.0, kind="second")
        assert queue.pop().kind == "first"
        assert queue.pop().kind == "second"

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue
        queue.schedule(1.0)
        assert queue and len(queue) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek_does_not_remove(self):
        queue = EventQueue()
        queue.schedule(1.0, kind="only")
        assert queue.peek().kind == "only"
        assert len(queue) == 1

    def test_peek_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().peek()

    def test_clear(self):
        queue = EventQueue()
        queue.schedule(1.0)
        queue.schedule(2.0)
        queue.clear()
        assert len(queue) == 0

    def test_payload_and_callback_preserved(self):
        queue = EventQueue()
        payload = {"round": 3}
        callback = lambda event: None
        queue.schedule(2.0, kind="custom", payload=payload, callback=callback)
        event = queue.pop()
        assert event.payload is payload
        assert event.callback is callback

    def test_push_assigns_sequence(self):
        queue = EventQueue()
        first = queue.push(Event(timestamp=1.0))
        second = queue.push(Event(timestamp=1.0))
        assert second.sequence > first.sequence


class TestPopRun:
    """A batch's run ends at the first row whose key is not below the heap top."""

    @staticmethod
    def run_of(plain=None, plain_first=False, until=math.inf):
        """Pop the batch ``[1, 2, 2, 3]`` with an optional plain ``(time, priority)``."""
        queue = EventQueue()
        if plain is not None and plain_first:
            queue.schedule(plain[0], priority=plain[1])
        batch = queue.schedule_batch(np.array([1.0, 2.0, 2.0, 3.0]), "row", None)
        if plain is not None and not plain_first:
            queue.schedule(plain[0], priority=plain[1])
        assert queue.pop() is batch
        return queue.pop_run(batch, until)

    def test_nothing_else_queued(self):
        assert self.run_of() == (0, 4)
        assert self.run_of(until=2.0) == (0, 3)
        assert self.run_of(until=1.5) == (0, 1)

    def test_an_equal_time_entry_cuts_by_priority_then_sequence(self):
        assert self.run_of((2.0, 1)) == (0, 3)
        assert self.run_of((2.0, -1)) == (0, 1)
        assert self.run_of((2.0, 0)) == (0, 3)
        assert self.run_of((2.0, 0), plain_first=True) == (0, 1)

    def test_a_later_entry_leaves_the_earlier_rows(self):
        assert self.run_of((2.5, -1)) == (0, 3)
        assert self.run_of((2.5, -1), until=1.0) == (0, 1)

    def test_requeue_keys_the_batch_by_its_next_row(self):
        queue = EventQueue()
        batch = queue.schedule_batch(np.array([2.0, 1.0]), "row", None)
        queue.pop()
        queue.requeue(batch, 1)
        assert queue.peek() is batch and batch.timestamp == 2.0 and len(batch) == 1
        queue.pop()
        queue.requeue(batch, 2)
        assert not queue and len(batch) == 0
