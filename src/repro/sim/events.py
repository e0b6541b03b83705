"""Event objects and the time-ordered event queue.

The queue is one binary heap of ``(time, key, event)`` tuples, so two
events scheduled for the same instant fire in the order they were
scheduled (``key`` is the scheduling sequence number unless schedule fuzz
is on — see below).  Every comparison is C-speed tuple comparison; keys
are unique, so a comparison never reaches the :class:`Event` objects.
Cancellation is lazy: a cancelled event stays queued but is skipped when
popped, which keeps cancellation O(1) and avoids heap surgery.  The queue
still reports its *live* length — cancelled-but-unpopped timers are
excluded — so quiescence checks and progress logs aren't inflated by
lazily-cancelled events.  Million-timer churn runs cancel most of what
they schedule (per-attempt watchdogs, heartbeats of crashed nodes), so
when more than half of the stored entries are dead the queue rebuilds
itself, dropping them in one O(n) pass instead of paying O(dead) on every
pop.

Schedule fuzzing (the repro-race runtime sanitizer)
---------------------------------------------------
FIFO tie-breaking among same-timestamp events is a *simulator* guarantee,
not one the deployed WAN makes: concurrent messages arrive in arbitrary
order.  ``REPRO_SCHEDULE_FUZZ=shuffle`` (or ``reverse``) replaces the
``seq`` component of every stored entry with a seeded *tie key* — a
bijective mix of ``seq`` under ``shuffle``, ``-seq`` under ``reverse`` —
so equal-time events fire in a perturbed but fully deterministic order.
Events at distinct times are unaffected, and ``REPRO_SCHEDULE_FUZZ_SEED``
selects among shuffle orders.  Handlers whose outcome changes under fuzz
depend on insertion order — exactly the latent races the ordering lint
hunts statically.  The mode is captured per :class:`EventQueue` at
construction; use :func:`schedule_fuzz` (a context manager) around
simulator construction in tests.
"""

import itertools
import os
from contextlib import contextmanager
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable, List, Optional, Tuple

_INF = float("inf")

# ----------------------------------------------------------------------
# Schedule-fuzz mode (tie-break perturbation)
# ----------------------------------------------------------------------
#: Tie-break equal-time events in scheduling (``seq``) order — the default.
FUZZ_OFF = "off"
#: Tie-break equal-time events in a seeded pseudo-random order.
FUZZ_SHUFFLE = "shuffle"
#: Tie-break equal-time events in reverse scheduling order (LIFO).
FUZZ_REVERSE = "reverse"

_FUZZ_MODES = (FUZZ_OFF, FUZZ_SHUFFLE, FUZZ_REVERSE)

_M64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    """splitmix64 finalizer: a bijection on 64-bit ints.

    Bijectivity is what makes the shuffled tie keys collision-free for
    distinct ``seq`` values, so the total order stays strict and tuple
    comparisons never fall through to the :class:`Event` objects.
    """
    value = (value + 0x9E3779B97F4A7C15) & _M64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _M64
    return value ^ (value >> 31)


def _mode_from_env() -> str:
    raw = os.environ.get("REPRO_SCHEDULE_FUZZ", "").strip().lower()
    if raw in ("", "0", "false", "no"):
        return FUZZ_OFF
    if raw in _FUZZ_MODES:
        return raw
    raise ValueError(
        f"REPRO_SCHEDULE_FUZZ={raw!r} is not one of {', '.join(_FUZZ_MODES)}"
    )


def _seed_from_env() -> int:
    raw = os.environ.get("REPRO_SCHEDULE_FUZZ_SEED", "").strip()
    return int(raw) if raw else 0


_fuzz_mode = _mode_from_env()
_fuzz_seed = _seed_from_env()


def schedule_fuzz_mode() -> str:
    """The process-wide fuzz mode new :class:`EventQueue`\\ s will capture."""
    return _fuzz_mode


def schedule_fuzz_seed() -> int:
    """The seed that selects among shuffle orders."""
    return _fuzz_seed


def set_schedule_fuzz(mode: str, seed: Optional[int] = None) -> Tuple[str, int]:
    """Set the fuzz mode (and optionally the seed); returns the previous pair.

    Only queues constructed *after* the call observe the new mode — an
    :class:`EventQueue` captures its tie-key function at construction so
    the hot push path never consults module state.
    """
    global _fuzz_mode, _fuzz_seed
    if mode not in _FUZZ_MODES:
        raise ValueError(f"unknown schedule-fuzz mode {mode!r} (expected {_FUZZ_MODES})")
    previous = (_fuzz_mode, _fuzz_seed)
    _fuzz_mode = mode
    if seed is not None:
        _fuzz_seed = int(seed)
    return previous


@contextmanager
def schedule_fuzz(mode: str, seed: Optional[int] = None):
    """Context manager: run a block under the given fuzz mode/seed."""
    previous = set_schedule_fuzz(mode, seed)
    try:
        yield
    finally:
        set_schedule_fuzz(previous[0], previous[1])


def _tie_key_fn(mode: str, seed: int) -> Optional[Callable[[int], int]]:
    """The ``seq -> tie key`` map for ``mode``, or ``None`` for identity."""
    if mode == FUZZ_OFF:
        return None
    if mode == FUZZ_REVERSE:
        return int.__neg__
    salt = _mix64(seed & _M64)
    return lambda seq: _mix64(seq ^ salt)


#: Compaction trigger: rebuild when at least this many entries are dead
#: *and* they make up at least half of everything stored.
_COMPACT_MIN_DEAD = 64


class Event:
    """A single scheduled callback.

    Instances are created by :meth:`repro.sim.kernel.Simulator.schedule`;
    user code only holds them to :meth:`cancel` a pending timer.
    """

    __slots__ = ("time", "seq", "key", "callback", "args", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        queue: Optional["EventQueue"],
        key: int,
    ) -> None:
        self.time = time
        self.seq = seq
        #: Tie-break key within a timestamp: ``seq`` normally, a seeded
        #: perturbation of it under ``REPRO_SCHEDULE_FUZZ``.
        self.key = key
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: The queue holding this event; ``None`` once it is popped, so a
        #: cancel after the pop is not counted as a dead entry.
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when its time comes."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event(t={self.time:.6f}, {name}, {state})"


class EventQueue:
    """Binary heap of :class:`Event` in exact ``(time, key)`` order."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()
        #: ``seq -> tie key`` under schedule fuzz, ``None`` when off.
        #: Captured once so the per-push cost of the off mode is a single
        #: ``is None`` test.
        self._tie_key = _tie_key_fn(_fuzz_mode, _fuzz_seed)
        #: Cancelled entries still in the heap awaiting lazy removal.
        self._dead = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) pending events."""
        return len(self._heap) - self._dead

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        self._dead += 1
        if self._dead >= _COMPACT_MIN_DEAD and self._dead * 2 >= len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap, dropping every cancelled entry in one pass."""
        live = [entry for entry in self._heap if not entry[2].cancelled]
        heapify(live)
        self._heap = live
        self._dead = 0

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def push(self, time: float, callback: Callable[..., Any], args: Tuple[Any, ...]) -> Event:
        seq = next(self._counter)
        tie = self._tie_key
        key = seq if tie is None else tie(seq)
        event = Event(time, seq, callback, args, self, key)
        heappush(self._heap, (time, key, event))
        return event

    def push_many(
        self, items: Iterable[Tuple[float, Callable[..., Any], Tuple[Any, ...]]]
    ) -> List[Event]:
        """Bulk :meth:`push`; one call amortizes the per-event overhead."""
        counter = self._counter
        tie = self._tie_key
        heap = self._heap
        events = []
        for time, callback, args in items:
            seq = next(counter)
            key = seq if tie is None else tie(seq)
            event = Event(time, seq, callback, args, self, key)
            heappush(heap, (time, key, event))
            events.append(event)
        return events

    # ------------------------------------------------------------------
    # Head access
    # ------------------------------------------------------------------
    def _live_head(self) -> Optional[Tuple[float, int, Event]]:
        """The earliest live entry, discarding cancelled ones above it."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[2].cancelled:
                return entry
            heappop(heap)
            self._dead -= 1
        return None

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or ``None``."""
        return self.pop_due(_INF)

    def pop_due(self, limit: float) -> Optional[Event]:
        """Pop the earliest live event with ``time <= limit``, else ``None``.

        The kernel's ``run_until`` hot path.
        """
        heap = self._heap
        if heap:
            entry = heap[0]
            if entry[2].cancelled:
                entry = self._live_head()
                if entry is None:
                    return None
            if entry[0] > limit:
                return None
            heappop(heap)
            event = entry[2]
            event._queue = None
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event without removing it."""
        entry = self._live_head()
        return None if entry is None else entry[0]
