"""Per-layer tracing for the traced benchmark run.

Installed only for the traced run, from the benchmark's own files, by
wrapping entry points of each layer package (``repro.sim``, ``repro.net``,
``repro.overlay``, ``repro.core``, ``repro.storage``) on their classes.
Nothing inside the program changes; :func:`uninstall` puts every original
back, and :func:`assert_uninstalled` proves it before an untraced run.

Spans nest on one stack (the simulation is single threaded).  For every
span the tracer records

* **self time** — its duration minus the child spans it covers; a
  layer's self time is the sum over its spans, so the layers' self times
  plus the time outside every span add up to the traced wall time;
* **own-layer time** — its duration minus the child spans of *other*
  layers, i.e. the time the layer spent on that call, used for the
  ``*_us_per_*`` entry-point metrics.

Event callbacks are attributed to the layer that defines the callback:
``EventQueue.push``/``push_many`` wrap each callback in a span of its
layer when it is scheduled, so the kernel loop itself (pop, dispatch) is
what remains as ``sim`` self time.  Callbacks the benchmark defines are
``harness`` spans and count as unattributed.  Per-kind message counts
and bytes are taken at the ``SimNetwork`` send boundary.

The tracer's own work would otherwise land in the layers it measures.
:meth:`Tracer.calibrate` times each kind of wrapper around a no-op and
splits its cost into the part that lands in the span itself and the part
that lands in its parent.  Every span subtracts those costs from the
self and own-layer times they land in, and the extra work of the push,
send-count and DAC-sample wrappers is subtracted per call.  ``tracer_s``
is the total taken out.
"""

import statistics
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.embedding import Embedding
from repro.core.mind_node import MindNode
from repro.net.message import HEADER_BYTES
from repro.net.network import SimNetwork
from repro.overlay.node import OverlayNode
from repro.sim.events import EventQueue
from repro.sim.kernel import Simulator
from repro.storage.dac import DataAccessController
from repro.storage.memtable import TimePartitionedStore

LAYERS = ("sim", "net", "overlay", "core", "storage")
HARNESS = "harness"
_MARK = "__mindbench_span__"


def layer_of_module(module: Optional[str]) -> str:
    if module:
        parts = module.split(".")
        if parts[0] == "repro" and len(parts) > 1 and parts[1] in LAYERS:
            return parts[1]
    return HARNESS


class Entry:
    """Accumulators of one named entry point.

    ``active`` marks an open outermost call: a nested call of the same
    entry (a batch method falling back to its scalar twin) runs inside
    the outer span and is not counted twice.
    """

    __slots__ = ("calls", "units", "own_s", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.units = 0
        self.own_s = 0.0
        self.active = False


class Tracer:
    """Span stack plus per-layer and per-entry accumulators."""

    def __init__(self) -> None:
        self._patches: List[Tuple[type, str, object]] = []
        self._layer_cache: Dict[object, str] = {}
        self.entries: Dict[str, Entry] = {}
        self.msg_kinds: Dict[str, int] = {}
        self.dac_waits: List[float] = []
        #: Calibrated tracer cost in seconds: per span kind, the part that
        #: lands in the span and the part that lands in its parent; per
        #: call, the extra work of the push, send and submit wrappers.
        self.span_costs: Dict[str, Tuple[float, float]] = {
            kind: (0.0, 0.0) for kind in ("plain", "entry", "units", "runner")
        }
        self.extra_costs: Dict[str, float] = {"push": 0.0, "send": 0.0, "submit": 0.0}
        self.reset()

    def reset(self) -> None:
        """Zero every accumulator (in place: the wrappers hold them)."""
        # Frame: [layer, start, child_s, foreign_s, self_cost_s, own_cost_s]
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYERS + (HARNESS,)}
        self.tracer_s = 0.0
        self.pushes = 0
        for entry in self.entries.values():
            entry.calls = entry.units = 0
            entry.own_s = 0.0
        self.msg_kinds.clear()
        self.msg_bytes = 0
        self.dac_waits.clear()

    # -- spans ---------------------------------------------------------
    def _enter(self, layer: str) -> list:
        frame = [layer, 0.0, 0.0, 0.0, 0.0, 0.0]
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _exit(self, frame: list, entry: Optional[Entry], inner: float, outer: float) -> None:
        """Close ``frame``.  ``inner`` is the tracer cost that lands in
        this span, ``outer`` the cost that lands in its parent."""
        dur = perf_counter() - frame[1]
        stack = self._stack
        stack.pop()
        layer = frame[0]
        self.self_s[layer] += dur - frame[2] - frame[4] - inner
        own_cost = frame[5] + inner
        if entry is not None:
            entry.calls += 1
            entry.own_s += dur - frame[3] - own_cost
        self.tracer_s += inner + outer
        if stack:
            parent = stack[-1]
            parent[2] += dur
            parent[4] += outer
            if parent[0] != layer:
                parent[3] += dur
                parent[5] += outer
            else:
                parent[3] += frame[3]
                parent[5] += outer + own_cost

    def entry(self, name: str) -> Entry:
        entry = self.entries.get(name)
        if entry is None:
            entry = self.entries[name] = Entry()
        return entry

    def span(self, layer: str, fn: Callable, name: Optional[str] = None,
             units: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span of ``layer`` (and entry ``name``)."""
        enter, exit_ = self._enter, self._exit
        entry = self.entry(name) if name else None
        inner, outer = self.span_costs[
            "plain" if entry is None else "entry" if units is None else "units"
        ]

        def wrapper(*args, **kwargs):
            if entry is not None:
                if entry.active:
                    return fn(*args, **kwargs)
                entry.active = True
            frame = enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame, entry, inner, outer)
                if entry is not None:
                    entry.active = False
            if units is not None:
                entry.units += units(args, result)
            return result

        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def harness(self, fn: Callable) -> Callable:
        return self.span(HARNESS, fn)

    def callback_layer(self, callback) -> str:
        """Layer of the package that defines ``callback`` (cached per code
        object: closures are fresh function objects on every schedule)."""
        func = getattr(callback, "__func__", callback)
        while getattr(func, _MARK, False):
            func = func.__wrapped__
        key = getattr(func, "__code__", None) or type(func)
        layer = self._layer_cache.get(key)
        if layer is None:
            layer = self._layer_cache[key] = layer_of_module(getattr(func, "__module__", None))
        return layer

    def _runner(self, layer: str) -> Callable:
        """Event trampoline: runs ``callback(*args)`` in a span of ``layer``."""
        enter, exit_ = self._enter, self._exit
        inner, outer = self.span_costs["runner"]

        def run(callback, args):
            frame = enter(layer)
            try:
                callback(*args)
            finally:
                exit_(frame, None, inner, outer)

        return run

    # -- wrapper bodies (built around no-ops by :meth:`calibrate`) -------
    def _pushers(self, push: Callable, push_many: Callable) -> Tuple[Callable, Callable]:
        runners = {layer: self._runner(layer) for layer in LAYERS + (HARNESS,)}
        callback_layer = self.callback_layer

        def traced_push(queue, time, callback, args):
            self.pushes += 1
            return push(queue, time, runners[callback_layer(callback)], (callback, args))

        def traced_push_many(queue, items):
            items = [(t, runners[callback_layer(cb)], (cb, a)) for t, cb, a in items]
            self.pushes += len(items)
            return push_many(queue, items)

        return traced_push, traced_push_many

    def _counter(self, transmit: Callable) -> Callable:
        kinds = self.msg_kinds

        def counted_transmit(network, msg, tuples, on_fail):
            kinds[msg.kind] = kinds.get(msg.kind, 0) + 1
            self.msg_bytes += msg.size_bytes + HEADER_BYTES
            return transmit(network, msg, tuples, on_fail)

        return counted_transmit

    def _sampler(self, submit: Callable) -> Callable:
        waits = self.dac_waits

        def sampled_submit(dac, cost_s, callback, *args):
            waits.append(dac.queue_delay_s)
            return submit(dac, cost_s, callback, *args)

        return sampled_submit

    # -- calibration ---------------------------------------------------
    def calibrate(self, calls: int = 10_000, repeats: int = 5) -> None:
        """Measure the tracer's cost per span and per wrapped call.

        Each kind of wrapper is called ``calls`` times around a no-op
        inside an outer span, on a scratch tracer, and compared with the
        same loop calling the no-op directly.  The wrapped no-op's self
        time is the cost that lands in a span; the outer span's extra
        self time is the cost that lands in the parent.  Medians over
        ``repeats`` loops.
        """
        def noop(*args):
            return None

        def loop(fn, args):
            for _ in range(calls):
                fn(*args)

        def direct_s(fn, args) -> float:
            t0 = perf_counter()
            loop(fn, args)
            return perf_counter() - t0

        def split(make, args=()) -> Tuple[float, float]:
            inner, outer = [], []
            for _ in range(repeats):
                scratch = Tracer()
                fn, call_args = make(scratch)
                frame = scratch._enter("sim")
                loop(fn, call_args)
                scratch._exit(frame, None, 0.0, 0.0)
                base = direct_s(noop, args)
                inner.append(scratch.self_s["net"] / calls)
                outer.append((scratch.self_s["sim"] - base) / calls)
            return max(0.0, statistics.median(inner)), max(0.0, statistics.median(outer))

        self.span_costs = {
            "plain": split(lambda t: (t.span("net", noop), ())),
            "entry": split(lambda t: (t.span("net", noop, "cal"), ())),
            "units": split(lambda t: (t.span("net", noop, "cal", lambda a, r: 1), ())),
            "runner": split(lambda t: (t._runner("net"), (noop, ()))),
        }

        def extra(wrapped, args) -> float:
            return max(0.0, statistics.median(
                direct_s(wrapped, args) - direct_s(noop, args) for _ in range(repeats)
            ) / calls)

        scratch = Tracer()
        push, _ = scratch._pushers(noop, noop)
        msg = SimpleNamespace(kind="cal", size_bytes=1)
        dac = SimpleNamespace(queue_delay_s=0.0)
        self.extra_costs = {
            "push": extra(push, (None, 0.0, noop, ())),
            "send": extra(scratch._counter(noop), (None, msg, 1, None)),
            "submit": extra(scratch._sampler(noop), (dac, 0.0, noop)),
        }
        del scratch.dac_waits[:]

    def span_cost_s(self) -> float:
        """Calibrated cost of one plain span, both parts."""
        return sum(self.span_costs["plain"])

    def finish(self) -> None:
        """Take the per-call wrapper costs out of the layers they landed
        in (call after the traced run)."""
        push = self.extra_costs["push"] * self.pushes
        sends = sum(self.msg_kinds.values())
        send = self.extra_costs["send"] * sends
        submit = self.extra_costs["submit"] * len(self.dac_waits)
        self.self_s["sim"] -= push
        self.self_s["net"] -= send
        self.entry("net.send").own_s -= send
        self.self_s["storage"] -= submit
        self.tracer_s += push + send + submit

    # -- installation --------------------------------------------------
    def _patch(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def _wrap_method(self, cls: type, attr: str, name: Optional[str] = None,
                     units: Optional[Callable] = None) -> None:
        layer = layer_of_module(cls.__module__)
        self._patch(cls, attr, self.span(layer, cls.__dict__[attr], name, units))

    def install(self) -> None:
        """Calibrate, then wrap every entry point.  Call before the
        cluster is built: ``Simulator`` binds ``EventQueue.push`` at
        construction."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.calibrate()
        span, callback_layer = self.span, self.callback_layer

        # sim: the open loop's run_until calls, and callback attribution at push.
        self._wrap_method(Simulator, "run_until")
        traced_push, traced_push_many = self._pushers(EventQueue.push, EventQueue.push_many)
        self._patch(EventQueue, "push", span("sim", traced_push))
        self._patch(EventQueue, "push_many", span("sim", traced_push_many))

        # net: the send boundary counts kinds and bytes.
        traced_transmit = span("net", self._counter(SimNetwork.__dict__["_transmit"]), "net.send")
        self._patch(SimNetwork, "_transmit", traced_transmit)
        self._patch(SimNetwork, "send_framed", traced_transmit)
        # Coalesced delivery (off by default) drains through _drain_slot.
        self._wrap_method(SimNetwork, "_deliver", "net.deliver")
        self._wrap_method(SimNetwork, "_drain_slot", "net.deliver")

        # overlay: receive model, dispatch, routing and sending.  Message
        # handlers run in a span of the layer that defines them, so the
        # dispatch table is wrapped entry by entry when a node builds it.
        for attr in ("_deliver", "_dispatch", "route", "_route_step", "_send"):
            self._wrap_method(OverlayNode, attr)
        build_table = OverlayNode.__dict__["_build_dispatch_table"]

        def traced_build_table(node):
            table = build_table(node)
            for kid, handler in enumerate(table):
                if handler is not None:
                    table[kid] = span(callback_layer(handler), handler)
            return table

        self._patch(OverlayNode, "_build_dispatch_table", span("overlay", traced_build_table))

        # core: the hooks the overlay calls back into.
        for attr, value in list(vars(MindNode).items()):
            if attr.startswith("on_") and callable(value):
                self._wrap_method(MindNode, attr)

        # core: origin, arrival and merge entry points.
        self._wrap_method(MindNode, "insert_record", "core.insert_origin")
        self._wrap_method(MindNode, "query_index", "core.query_origin")
        self._wrap_method(MindNode, "_arrive_subquery", "core.arrival")
        self._wrap_method(MindNode, "_apply_query_response", "core.result_merge",
                          lambda args, _: len(args[1]["records"]))
        # The batch twins are wrapped too, so moving the origin to batched
        # normalize+embed (ROADMAP item 2) is measured, not lost.
        self._wrap_method(Embedding, "point_code", "core.embed", lambda args, _: 1)
        self._wrap_method(Embedding, "point_codes_batch", "core.embed",
                          lambda args, result: len(result))

        # storage: store scans and writes, DAC queueing.
        self._wrap_method(TimePartitionedStore, "query", "storage.scan",
                          lambda args, result: len(result))
        self._wrap_method(TimePartitionedStore, "insert", "storage.insert", lambda args, _: 1)
        self._wrap_method(TimePartitionedStore, "insert_batch", "storage.insert",
                          lambda args, _: len(args[1]))
        self._patch(DataAccessController, "submit",
                    span("storage", self._sampler(DataAccessController.__dict__["submit"])))

    def uninstall(self) -> None:
        while self._patches:
            cls, attr, original = self._patches.pop()
            setattr(cls, attr, original)
        assert_uninstalled()

    # -- results -------------------------------------------------------
    def own_us_per(self, name: str, per: str = "calls") -> float:
        entry = self.entries.get(name)
        if entry is None:
            return 0.0
        n = entry.calls if per == "calls" else entry.units
        return entry.own_s * 1e6 / n if n else 0.0

    def units_per_call(self, name: str) -> float:
        entry = self.entries.get(name)
        return entry.units / entry.calls if entry and entry.calls else 0.0


#: Every class whose attributes the tracer may replace.
TRACED_CLASSES = (
    Simulator, EventQueue, SimNetwork, OverlayNode, MindNode, Embedding,
    TimePartitionedStore, DataAccessController,
)


def assert_uninstalled() -> None:
    """Raise if any tracer wrapper is still installed on a layer class."""
    for cls in TRACED_CLASSES:
        for attr, value in vars(cls).items():
            if getattr(value, _MARK, False):
                raise RuntimeError(f"tracer wrapper left on {cls.__name__}.{attr}")
