"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import (EngineStoppedError, SchedulingError, Simulator,
                       Sleep, spawn)


class TestClockAndScheduling:
    def test_starts_at_zero(self):
        sim = Simulator()
        assert sim.now == 0.0

    def test_custom_start_time(self):
        sim = Simulator(start_time=100.0)
        assert sim.now == 100.0

    def test_call_at_executes_at_time(self):
        sim = Simulator()
        seen = []
        sim.call_at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_call_after_relative(self):
        sim = Simulator()
        seen = []
        sim.call_after(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.call_at(10.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.call_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.call_after(-1.0, lambda: None)

    def test_zero_delay_allowed(self):
        sim = Simulator()
        seen = []
        sim.call_after(0.0, lambda: seen.append(True))
        sim.run()
        assert seen == [True]

    def test_fifo_order_at_same_timestamp(self):
        sim = Simulator()
        seen = []
        for i in range(10):
            sim.call_at(1.0, lambda i=i: seen.append(i))
        sim.run()
        assert seen == list(range(10))

    def test_execution_in_time_order(self):
        sim = Simulator()
        seen = []
        for t in (5.0, 1.0, 3.0, 2.0, 4.0):
            sim.call_at(t, lambda t=t: seen.append(t))
        sim.run()
        assert seen == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_events_scheduled_during_execution(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append("first")
            sim.call_after(1.0, lambda: seen.append("second"))

        sim.call_at(1.0, first)
        sim.run()
        assert seen == ["first", "second"]
        assert sim.now == 2.0


class TestRunUntil:
    def test_stops_at_end_time(self):
        sim = Simulator()
        seen = []
        for t in (1.0, 2.0, 3.0):
            sim.call_at(t, lambda t=t: seen.append(t))
        executed = sim.run_until(2.0)
        assert executed == 2
        assert seen == [1.0, 2.0]
        assert sim.now == 2.0

    def test_clock_advances_to_end_even_when_idle(self):
        sim = Simulator()
        sim.run_until(50.0)
        assert sim.now == 50.0

    def test_consecutive_windows(self):
        sim = Simulator()
        seen = []
        for t in (1.0, 5.0, 9.0):
            sim.call_at(t, lambda t=t: seen.append(t))
        sim.run_until(4.0)
        assert seen == [1.0]
        sim.run_until(10.0)
        assert seen == [1.0, 5.0, 9.0]

    def test_end_before_now_rejected(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(SchedulingError):
            sim.run_until(5.0)

    def test_max_events_bound(self):
        sim = Simulator()
        for t in range(10):
            sim.call_at(float(t + 1), lambda: None)
        executed = sim.run_until(100.0, max_events=3)
        assert executed == 3

    def test_max_events_break_does_not_skip_queued_events(self):
        # Regression: when the max_events bound fires, the clock must
        # stay at the last executed event, not jump to end_time past
        # events that are still queued and due before it.
        sim = Simulator()
        seen = []
        for t in range(10):
            sim.call_at(float(t + 1), lambda t=t: seen.append(t + 1))
        sim.run_until(100.0, max_events=3)
        assert sim.now == 3.0
        # The remaining events are still runnable in a later window.
        sim.run_until(100.0)
        assert seen == list(range(1, 11))
        assert sim.now == 100.0

    def test_run_until_without_break_still_reaches_end_time(self):
        sim = Simulator()
        sim.call_at(2.0, lambda: None)
        sim.run_until(50.0)
        assert sim.now == 50.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        event = sim.call_at(1.0, lambda: seen.append(True))
        sim.cancel(event)
        sim.run()
        assert seen == []

    def test_double_cancel_is_safe(self):
        sim = Simulator()
        event = sim.call_at(1.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        assert len(sim.queue) == 0

    def test_live_count_tracks_cancellations(self):
        sim = Simulator()
        events = [sim.call_at(float(i + 1), lambda: None)
                  for i in range(5)]
        assert len(sim.queue) == 5
        sim.cancel(events[2])
        assert len(sim.queue) == 4


class TestStop:
    def test_stopped_engine_rejects_scheduling(self):
        sim = Simulator()
        sim.stop()
        with pytest.raises(EngineStoppedError):
            sim.call_after(1.0, lambda: None)

    def test_stop_clears_queue(self):
        sim = Simulator()
        held = sim.call_at(1.0, lambda: None)
        sim.stop()
        assert len(sim.queue) == 0
        # A handle held across stop() was dropped with the queue: a late
        # cancel must not decrement the live count a second time.
        sim.cancel(held)
        assert len(sim.queue) == 0
        assert "pending=0" in repr(sim)


class TestTimers:
    def test_timer_repeats(self):
        sim = Simulator()
        seen = []
        timer = sim.every(1.0, lambda: seen.append(sim.now))
        sim.run_until(5.5)
        timer.stop()
        assert seen == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_timer_stop_inside_callback(self):
        sim = Simulator()
        seen = []
        timer = sim.every(1.0, lambda: (seen.append(sim.now),
                                        timer.stop() if len(seen) >= 3
                                        else None))
        sim.run_until(10.0)
        assert len(seen) == 3

    def test_timer_jitter_applied(self):
        sim = Simulator()
        seen = []
        sim.every(10.0, lambda: seen.append(sim.now),
                  jitter_fn=lambda: -2.0)
        sim.run_until(17.0)
        assert seen == [8.0, 16.0]

    def test_invalid_period_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.every(0.0, lambda: None)


class TestProcesses:
    def test_process_sleeps(self):
        sim = Simulator()
        seen = []

        def script():
            seen.append(("start", sim.now))
            yield Sleep(5.0)
            seen.append(("middle", sim.now))
            yield 3.0  # bare numbers are sleeps too
            seen.append(("end", sim.now))

        process = spawn(sim, script)
        sim.run()
        assert seen == [("start", 0.0), ("middle", 5.0), ("end", 8.0)]
        assert process.finished

    def test_spawn_with_delay(self):
        sim = Simulator()
        seen = []

        def script():
            seen.append(sim.now)
            yield Sleep(1.0)

        spawn(sim, script, delay=4.0)
        sim.run()
        assert seen == [4.0]

    def test_cancel_process(self):
        sim = Simulator()
        seen = []

        def script():
            seen.append("a")
            yield Sleep(5.0)
            seen.append("b")

        process = spawn(sim, script)
        sim.run_until(1.0)
        process.cancel()
        sim.run()
        assert seen == ["a"]
        assert process.cancelled
        assert not process.alive

    def test_process_error_propagates(self):
        sim = Simulator()

        def script():
            yield Sleep(1.0)
            raise RuntimeError("boom")

        process = spawn(sim, script)
        with pytest.raises(RuntimeError):
            sim.run()
        assert process.error is not None


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = Simulator(seed=42).random.stream("x")
        b = Simulator(seed=42).random.stream("x")
        assert [a.random() for _ in range(10)] == \
               [b.random() for _ in range(10)]

    def test_different_names_independent(self):
        sim = Simulator(seed=42)
        a = sim.random.stream("a")
        b = sim.random.stream("b")
        assert [a.random() for _ in range(5)] != \
               [b.random() for _ in range(5)]

    def test_fork_differs_from_parent(self):
        sim = Simulator(seed=42)
        parent = sim.random.stream("x")
        child = sim.random.fork("node").stream("x")
        assert parent.random() != child.random()


class TestEventQueueInternals:
    def test_peek_time(self):
        from repro.sim import EventQueue
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.schedule(5.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        assert queue.peek_time() == 2.0

    def test_peek_skips_cancelled(self):
        from repro.sim import EventQueue
        queue = EventQueue()
        first = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        queue.cancel(first)
        assert queue.peek_time() == 2.0

    def test_bool_reflects_live_events(self):
        from repro.sim import EventQueue
        queue = EventQueue()
        assert not queue
        event = queue.schedule(1.0, lambda: None)
        assert queue
        queue.cancel(event)
        assert not queue


def _cb() -> None:
    pass


def _cb_arg(arg) -> None:
    pass


#: One queue operation: (kind, time-ish int).  Times are small ints so
#: same-timestamp ties (the FIFO tie-break path) are common, not rare.
_QUEUE_OPS = st.lists(
    st.tuples(st.sampled_from(["schedule", "pooled", "cancel", "pop",
                               "clear"]),
              st.integers(min_value=0, max_value=7)),
    max_size=200)


def _apply_queue_ops(queue, ops):
    """Drive ``queue`` through ``ops`` against a reference model.

    The model is a dict of live events, ``seq -> (time, seq)``.  After
    every op the queue's live count must match it, and every pop must
    return the model's smallest live ``(time, seq)``.
    """
    live = {}
    handles = []
    next_seq = 0
    for kind, value in ops:
        if kind == "schedule":
            event = queue.schedule(float(value), _cb, label=f"t{value}")
            assert event.seq == next_seq
            handles.append(event)
            live[next_seq] = (float(value), next_seq)
            next_seq += 1
        elif kind == "pooled":
            queue.schedule_pooled(float(value), _cb_arg, arg=value,
                                  label=f"p{value}")
            live[next_seq] = (float(value), next_seq)
            next_seq += 1
        elif kind == "cancel" and handles:
            event = handles[value % len(handles)]
            queue.cancel(event)
            live.pop(event.seq, None)
        elif kind == "pop":
            event = queue.pop()
            if not live:
                assert event is None
            else:
                expected = min(live.values())
                assert (event.time, event.seq) == expected
                del live[expected[1]]
                # Mirror the engine: recycle pooled events, mark
                # one-shot events consumed so a late cancel is a no-op.
                if event.poolable:
                    queue.recycle(event)
                else:
                    event.cancel()
        elif kind == "clear":
            queue.clear()
            live.clear()
        assert len(queue) == len(live)
        assert bool(queue) == bool(live)


class TestEventQueueModel:
    @given(ops=_QUEUE_OPS)
    # A handle held across clear() and cancelled afterwards.
    @example(ops=[("schedule", 0), ("clear", 0), ("cancel", 0)])
    @example(ops=[("schedule", 1), ("clear", 0), ("schedule", 2),
                  ("cancel", 0), ("pop", 0)])
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_model(self, ops):
        from repro.sim import EventQueue
        _apply_queue_ops(EventQueue(), ops)


class TestRunLoopFastPath:
    """Regression tests for the inlined run loops.

    ``run_until`` / ``run`` reach into the heap directly (one heap
    access per event) — these pin the observable semantics to the
    plain ``step()`` loop they replaced.
    """

    @staticmethod
    def _busy_sim(seed):
        sim = Simulator(seed=seed)
        seen = []

        def tick(t):
            seen.append((sim.now, t))
            if t < 40:
                sim.call_after(0.5, lambda: tick(t + 10))

        for t in (5.0, 1.0, 3.0, 1.0, 2.0):
            sim.call_at(t, lambda t=t: tick(t))
        return sim, seen

    def test_run_until_matches_step_loop(self):
        fast_sim, fast_seen = self._busy_sim(seed=3)
        executed = fast_sim.run_until(4.0)

        ref_sim, ref_seen = self._busy_sim(seed=3)
        stepped = 0
        while True:
            next_time = ref_sim.queue.peek_time()
            if next_time is None or next_time > 4.0:
                break
            ref_sim.step()
            stepped += 1
        ref_sim.clock.advance_to(4.0)

        assert fast_seen == ref_seen
        assert executed == stepped
        assert fast_sim.events_executed == ref_sim.events_executed
        assert fast_sim.now == ref_sim.now == 4.0

    def test_events_executed_counts_every_event(self):
        sim = Simulator()
        for t in range(10):
            sim.call_at(float(t), lambda: None)
        sim.run_until(4.5)
        assert sim.events_executed == 5
        sim.run()
        assert sim.events_executed == 10

    def test_events_executed_visible_mid_run(self):
        # The heartbeat/profiler reads events_executed from inside a
        # callback; the fast loop must keep the counter per-event, not
        # batch it at loop exit.
        sim = Simulator()
        observed = []
        for t in (1.0, 2.0, 3.0):
            sim.call_at(t, lambda: observed.append(sim.events_executed))
        sim.run()
        assert observed == [1, 2, 3]

    def test_clock_reads_event_time_inside_callback(self):
        sim = Simulator()
        observed = []
        for t in (1.25, 2.5):
            sim.call_at(t, lambda: observed.append(sim.now))
        sim.run_until(10.0)
        assert observed == [1.25, 2.5]
        assert sim.now == 10.0

    def test_run_until_max_events_zero_executes_nothing(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda: seen.append(True))
        assert sim.run_until(5.0, max_events=0) == 0
        assert seen == []
        # The pending event survives for a later window.
        sim.run_until(5.0)
        assert seen == [True]

    def test_run_skips_cancelled_without_counting(self):
        sim = Simulator()
        seen = []
        keep = sim.call_at(1.0, lambda: seen.append("keep"))
        drop = sim.call_at(1.0, lambda: seen.append("drop"))
        sim.cancel(drop)
        sim.run()
        assert seen == ["keep"]
        assert sim.events_executed == 1
        assert keep is not drop


class TestTombstoneCompaction:
    def test_cancel_heavy_workload_keeps_heap_bounded(self):
        # Schedule + cancel 100k timers: with lazy tombstones alone the
        # heap would hold all 100k dead entries; compaction must keep it
        # near the live population instead.
        from repro.sim import EventQueue
        queue = EventQueue()
        live = [queue.schedule(1e9 + i, lambda: None) for i in range(50)]
        for i in range(100_000):
            event = queue.schedule(float(i), lambda: None)
            queue.cancel(event)
        assert len(queue) == 50
        # Bounded: proportional to live events, nowhere near 100k.
        assert len(queue._heap) <= 2 * len(live) + 64
        # Pop order is unaffected by compaction.
        assert queue.pop().time == 1e9

    def test_compaction_preserves_pop_order(self):
        from repro.sim import EventQueue
        queue = EventQueue()
        times = [float(t) for t in (7, 3, 9, 1, 5, 8, 2, 6, 4, 0)]
        kept = [queue.schedule(t, lambda: None, label=str(t))
                for t in times]
        doomed = [queue.schedule(t + 0.5, lambda: None)
                  for t in times for _ in range(20)]
        for event in doomed:
            queue.cancel(event)
        queue.compact()
        popped = []
        while queue:
            popped.append(queue.pop().time)
        assert popped == sorted(times)
        assert kept[0].label == "7.0"

    def test_live_count_consistent_after_compaction(self):
        from repro.sim import EventQueue
        queue = EventQueue()
        events = [queue.schedule(float(i), lambda: None)
                  for i in range(200)]
        for event in events[::2]:
            queue.cancel(event)
        assert len(queue) == 100
        assert queue.peek_time() == 1.0


class TestPooledPost:
    def test_post_fires_without_arg(self):
        sim = Simulator()
        seen = []
        sim.post(2.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.0]

    def test_post_passes_arg_positionally(self):
        sim = Simulator()
        seen = []
        sim.post(1.0, seen.append, arg="payload")
        sim.post(2.0, seen.append, arg=None)  # None is a real argument
        sim.run()
        assert seen == ["payload", None]

    def test_post_interleaves_with_call_at_in_seq_order(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda: seen.append("a"))
        sim.post(1.0, seen.append, arg="b")
        sim.call_at(1.0, lambda: seen.append("c"))
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_post_rejects_past_time(self):
        sim = Simulator()
        sim.call_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.post(1.0, lambda: None)

    def test_post_rejects_stopped_engine(self):
        sim = Simulator()
        sim.stop()
        with pytest.raises(EngineStoppedError):
            sim.post(1.0, lambda: None)

    def test_pooled_events_are_recycled(self):
        sim = Simulator()
        for i in range(100):
            sim.post(float(i), lambda: None)
        sim.run()
        # Events returned to the free-list get reused by later posts.
        assert len(sim.queue._pool) > 0
        pooled_before = len(sim.queue._pool)
        sim.post(sim.now + 1.0, lambda: None)
        assert len(sim.queue._pool) == pooled_before - 1

    def test_pool_reuse_preserves_ordering_and_args(self):
        sim = Simulator()
        seen = []
        for round_no in range(3):
            for i in range(10):
                sim.post(sim.now + float(i + 1), seen.append,
                         arg=(round_no, i))
            sim.run()
        assert seen == [(r, i) for r in range(3) for i in range(10)]


class TestProcessValidation:
    def test_bad_yield_raises_process_error(self):
        from repro.sim import ProcessError, Simulator, spawn

        def script():
            yield "not-a-command"

        sim = Simulator()
        spawn(sim, script)
        with pytest.raises(ProcessError):
            sim.run()

    def test_negative_sleep_rejected(self):
        from repro.sim import ProcessError, Sleep
        with pytest.raises(ProcessError):
            Sleep(-1.0)

    def test_timer_stopped_property(self):
        sim = Simulator()
        timer = sim.every(1.0, lambda: None)
        assert not timer.stopped
        timer.stop()
        assert timer.stopped
