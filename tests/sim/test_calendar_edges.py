"""Calendar-queue edge cases: slot boundaries, cursor-slot mutation, drains.

The calendar front is an *ordering-transparent* accelerator: every test
here asserts the same observable sequence with the calendar on and off
(``num_slots=0``).  The tie-break mode is pinned explicitly — FIFO, or
each fuzz mode in turn — so the assertions hold in a schedule-fuzzed
suite run too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import (
    DEFAULT_SLOT_WIDTH,
    FUZZ_OFF,
    FUZZ_REVERSE,
    FUZZ_SHUFFLE,
    EventQueue,
    schedule_fuzz,
)


def _pair(**kwargs):
    """A calendar-fronted queue and a plain-heap queue, fuzz pinned off."""
    with schedule_fuzz("off"):
        return EventQueue(**kwargs), EventQueue(num_slots=0)


def _drain(queue):
    out = []
    while True:
        event = queue.pop()
        if event is None:
            return out
        out.append((event.time, event.seq))


def test_slot_boundary_times_keep_global_order():
    # Times at exact slot-width multiples sit on bucket boundaries; the
    # (time, key) order must be unaffected by which bucket they land in.
    cal, heap = _pair()
    w = DEFAULT_SLOT_WIDTH
    times = [0.0, w, w, 2 * w, w / 2, 3 * w, 2 * w, w]
    for t in times:
        cal.push(t, lambda: None, ())
        heap.push(t, lambda: None, ())
    got_cal, got_heap = _drain(cal), _drain(heap)
    assert got_cal == got_heap
    assert got_cal == sorted(got_cal)


def test_cancel_in_cursor_slot_during_drain():
    # Cancel entries of the *current* (sorted, partially consumed) slot
    # between pops: the live remainder must still come out in order and
    # the live length must track exactly.
    cal, heap = _pair()
    events_cal = [cal.push(1.0, lambda: None, (i,)) for i in range(6)]
    events_heap = [heap.push(1.0, lambda: None, (i,)) for i in range(6)]
    assert cal.pop().args == heap.pop().args == (0,)
    # Now the calendar cursor sits inside a sorted slot; cancel ahead.
    for ev in (events_cal[2], events_cal[4]):
        ev.cancel()
    for ev in (events_heap[2], events_heap[4]):
        ev.cancel()
    assert len(cal) == len(heap) == 3
    assert [e.args[0] for e in iter(cal.pop, None)] == [1, 3, 5]
    assert [e.args[0] for e in iter(heap.pop, None)] == [1, 3, 5]
    assert len(cal) == 0 and cal.pop() is None


def test_push_into_sorted_cursor_slot_mid_drain():
    # A zero-delay push lands in the slot the cursor is consuming; with
    # FIFO keys it must fire after everything already scheduled there,
    # exactly as in the heap engine.
    cal, heap = _pair()
    for q in (cal, heap):
        for i in range(4):
            q.push(1.0, lambda: None, (i,))
    assert cal.pop().args == heap.pop().args == (0,)
    cal.push(1.0, lambda: None, (99,))
    heap.push(1.0, lambda: None, (99,))
    assert [e.args[0] for e in iter(cal.pop, None)] == [1, 2, 3, 99]
    assert [e.args[0] for e in iter(heap.pop, None)] == [1, 2, 3, 99]


def test_far_future_overflow_and_idle_jump_reanchor():
    # Events beyond the calendar horizon overflow to the heap; after the
    # near-future entries drain, the cursor re-anchors on the next push
    # and ordering across the jump stays exact.
    cal, heap = _pair(num_slots=8)
    w = DEFAULT_SLOT_WIDTH
    for q in (cal, heap):
        q.push(2 * w, lambda: None, ("near",))
        q.push(1e6, lambda: None, ("far",))
    assert cal.pop().args == heap.pop().args == ("near",)
    # Idle jump: the next near-future push re-anchors far from slot 0.
    for q in (cal, heap):
        q.push(5000.0, lambda: None, ("later",))
    assert [e.args[0] for e in iter(cal.pop, None)] == ["later", "far"]
    assert [e.args[0] for e in iter(heap.pop, None)] == ["later", "far"]


def test_push_behind_cursor_goes_to_heap_not_lost():
    # After the cursor advances past a slot, a push for an earlier time
    # (allowed by EventQueue even if the kernel forbids it) must fall
    # back to the heap and still pop first.
    cal, _ = _pair()
    w = DEFAULT_SLOT_WIDTH
    cal.push(10 * w, lambda: None, ("late",))
    assert cal.pop().args == ("late",)
    cal.push(10 * w, lambda: None, ("same-slot",))
    cal.push(2 * w, lambda: None, ("behind",))
    assert [e.args[0] for e in iter(cal.pop, None)] == ["behind", "same-slot"]


def test_interleaved_cancel_push_pop_matches_heap():
    # A deterministic stress mix over both engines: pushes clustered on
    # few timestamps (ties), interleaved cancels (including entries in
    # the cursor slot), and periodic pops.
    cal, heap = _pair(num_slots=16)
    live = ([], [])
    script = [(i * 37 % 11, i) for i in range(120)]
    out = ([], [])
    for step, (slot, i) in enumerate(script):
        t = slot * DEFAULT_SLOT_WIDTH
        for k, q in enumerate((cal, heap)):
            live[k].append(q.push(t, lambda: None, (i,)))
        if step % 5 == 4:
            for k in (0, 1):
                live[k][(step * 13) % len(live[k])].cancel()
        if step % 7 == 6:
            for k, q in enumerate((cal, heap)):
                ev = q.pop()
                if ev is not None:
                    out[k].append((ev.time, ev.seq))
        assert len(cal) == len(heap)
    out[0].extend(_drain(cal))
    out[1].extend(_drain(heap))
    assert out[0] == out[1]


# ----------------------------------------------------------------------
# Sparse schedules: the cursor jumps over runs of empty slots
# ----------------------------------------------------------------------
# The calendar finds the next occupied slot through a one-byte-per-slot
# occupancy index instead of stepping slot by slot.  Each scenario below
# replays one script on a calendar queue and on the heap-only queue and
# compares every observable step, under every tie-break mode (both
# queues are built under the same mode and seed, so equal-time ties
# break identically), and checks after every step that the index marks
# exactly the non-empty slots.

FUZZ_MODES = pytest.mark.parametrize("mode", [FUZZ_OFF, FUZZ_SHUFFLE, FUZZ_REVERSE])


def _assert_index_matches_slots(queue):
    assert queue._occupied == bytearray(1 if bucket else 0 for bucket in queue._slots)


def _replay(script, mode, **kwargs):
    """Run ``script`` on a calendar queue and the heap-only queue.

    Steps are ``("push", t)``, ``("cancel", i)`` (the i-th pushed event),
    ``("pop",)``, ``("pop_due", limit)`` and ``("peek",)``; a final drain
    follows.
    """
    with schedule_fuzz(mode, 5):
        cal, heap = EventQueue(**kwargs), EventQueue(num_slots=0)
    pushed = ([], [])
    for step in script:
        op = step[0]
        results = []
        for k, queue in enumerate((cal, heap)):
            if op == "push":
                pushed[k].append(queue.push(step[1], lambda: None, ()))
                results.append(None)
            elif op == "cancel":
                pushed[k][step[1]].cancel()
                results.append(None)
            elif op == "pop":
                event = queue.pop()
                results.append(None if event is None else (event.time, event.seq))
            elif op == "pop_due":
                event = queue.pop_due(step[1])
                results.append(None if event is None else (event.time, event.seq))
            else:
                results.append(queue.peek_time())
        assert results[0] == results[1], step
        assert len(cal) == len(heap)
        _assert_index_matches_slots(cal)
    assert _drain(cal) == _drain(heap)
    _assert_index_matches_slots(cal)
    assert not any(cal._occupied)


@FUZZ_MODES
def test_gaps_of_hundreds_of_empty_slots(mode):
    w = DEFAULT_SLOT_WIDTH
    slots = [3, 3, 450, 451, 900, 1700, 1700, 2600, 5000]
    script = [("push", s * w) for s in slots]
    script += [("pop",), ("peek",), ("pop",), ("pop_due", 1000 * w), ("pop",)]
    # A zero-gap push into the sorted cursor slot, then one far ahead.
    script += [("push", 1700 * w), ("push", 7000 * w), ("pop",), ("peek",)]
    _replay(script, mode)


@FUZZ_MODES
def test_gaps_crossing_the_ring_index_wrap(mode):
    # 64 slots: absolute slots 50..113 map to ring indexes 50..63, 0..49,
    # so the search for the next occupied slot has to wrap to find 70
    # (index 6) and 100 (index 36) after draining 50 and 60.
    w = DEFAULT_SLOT_WIDTH
    script = [("push", s * w) for s in (50, 60, 70, 100, 100, 113)]
    script += [("pop",), ("pop",), ("peek",), ("pop",)]
    # Past the first wrap the window slides: 114..163 now fit.
    script += [("push", 150 * w), ("push", 163 * w), ("pop",), ("pop",)]
    script += [("push", 200 * w), ("pop",)]
    _replay(script, mode, num_slots=64)


@FUZZ_MODES
def test_cancel_only_entry_of_a_slot_then_skip_past_it(mode):
    w = DEFAULT_SLOT_WIDTH
    script = [("push", 10 * w), ("push", 10 * w), ("push", 300 * w), ("push", 600 * w)]
    # Slot 300's only entry is cancelled before the cursor reaches it.
    script += [("pop",), ("cancel", 2), ("pop",), ("peek",), ("pop",)]
    # The cursor sits on slot 600; cancel its only live entry, then push
    # beyond it so the cursor has to step off a slot of cancelled entries.
    script += [("push", 900 * w), ("cancel", 4), ("push", 650 * w), ("pop",), ("pop",)]
    _replay(script, mode, num_slots=1024)


@FUZZ_MODES
def test_compact_fires_mid_gap(mode):
    # The cursor stands before a long gap when the cancels trigger a
    # rebuild: the calendar is emptied into the heap, the index reset,
    # and later pushes re-anchor the cursor past the gap.
    w = DEFAULT_SLOT_WIDTH
    script = [("push", 5 * w), ("push", 5 * w), ("pop",)]
    script += [("push", (400 + i) * w) for i in range(80)]
    script += [("push", 3000 * w), ("peek",)]
    script += [("cancel", 2 + i) for i in range(70)]
    script += [("pop",), ("push", 700 * w), ("push", 2000 * w), ("pop",), ("peek",)]
    _replay(script, mode)


def test_compact_mid_gap_resets_the_index():
    with schedule_fuzz(FUZZ_OFF):
        queue = EventQueue()
    w = DEFAULT_SLOT_WIDTH
    events = [queue.push((100 + 10 * i) * w, lambda: None, ()) for i in range(100)]
    assert any(queue._occupied)
    for event in events[:-1]:
        event.cancel()
    # Compaction ran: everything live moved to the heap, no slot is marked.
    assert queue._cal_size == 0 and not any(queue._occupied)
    assert queue.pop() is events[-1]


@FUZZ_MODES
def test_reanchor_after_the_calendar_empties(mode):
    w = DEFAULT_SLOT_WIDTH
    script = [("push", 2 * w), ("push", 40 * w), ("pop",), ("pop",), ("pop",)]
    # Empty calendar: the next push re-anchors far ahead, leaving a gap
    # behind the old cursor that must never be revisited.
    script += [("push", 50_000 * w), ("push", 50_300 * w), ("push", 41 * w)]
    script += [("pop",), ("pop",), ("peek",), ("pop",), ("pop",)]
    script += [("push", 90_000 * w), ("push", 90_000 * w), ("pop",), ("pop",)]
    _replay(script, mode, num_slots=512)


@FUZZ_MODES
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_sparse_schedules_match_heap(mode, data):
    # Events ~0-600 slots apart on a 256-slot ring: long gaps, wraps,
    # horizon overflow to the heap, and re-anchors, mixed with cancels.
    w = DEFAULT_SLOT_WIDTH
    script, pushes, now = [], 0, 0
    for _ in range(data.draw(st.integers(1, 120))):
        op = data.draw(st.sampled_from(["push", "push", "push", "pop", "pop_due", "cancel", "peek"]))
        if op == "push":
            now += data.draw(st.integers(0, 600))
            script.append(("push", data.draw(st.integers(max(0, now - 300), now)) * w))
            pushes += 1
        elif op == "cancel" and pushes:
            script.append(("cancel", data.draw(st.integers(0, pushes - 1))))
        elif op == "pop_due":
            script.append(("pop_due", data.draw(st.integers(0, now + 600)) * w))
        elif op in ("pop", "peek"):
            script.append((op,))
    _replay(script, mode, num_slots=256)
