"""Per-layer attribution for the traced benchmark run.

:class:`LayerTracer` wraps the public functions of each simulator layer
with a span: a wall-clock interval on a stack, so every span knows its
parent.  A layer's *self time* is the time its spans cover minus the
time their wrapped children cover; the self times of all layers plus the
uncovered remainder (``other``) add up to the traced wall time.

Everything is patched from here, on class and module attributes, before
the workload builds its objects, and restored by :meth:`LayerTracer.uninstall`.
The program itself is not modified.  Callbacks handed to
``Simulation.schedule``/``schedule_at``/``schedule_many`` are wrapped
too and charged to the layer of the module that defines them, so the
engine's dispatch loop is separated from handler work.

Spans are aggregated as they close (calls, self time, parent counts):
a paper run makes millions of calls, far too many to keep one record
each.  Nested calls into the same layer (``best`` -> ``top_k``,
``asns_of`` -> ``asn_of``) count as one call of that layer.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

#: The layers, in report order.  Each entry: layer name, the functions
#: whose spans it owns as ``module:Class.attr`` / ``module:function``
#: (``Class.on_*`` expands to every ``on_*`` method the class defines).
LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("sim.engine", (
        "repro.sim.engine:Simulation.run",
        "repro.sim.engine:Simulation.step",
        # schedule_at and schedule_many: see LayerTracer._patch_scheduler
        # (Simulation.schedule goes through schedule_at)
    )),
    ("sim.messages", (
        "repro.sim.messages:MessageBus.send",
        "repro.sim.messages:MessageBus.send_many",
        "repro.sim.messages:MessageBus.account_external",
    )),
    ("underlay.delay", (
        "repro.underlay.network:Underlay.one_way_delay",
        "repro.underlay.network:Underlay.one_way_delay_row",
    )),
    ("underlay.network.asn_of", (
        "repro.underlay.network:Underlay.asn_of",
        "repro.underlay.network:Underlay.asns_of",
    )),
    ("underlay.generate", (
        "repro.underlay.network:Underlay.generate",
    )),
    ("underlay.traffic.observe", (
        "repro.underlay.traffic:TrafficAccountant.observe",
    )),
    ("underlay.routing.path_links", (
        "repro.underlay.routing:ASRouting.path_links",
    )),
    ("underlay.cost.record", (
        "repro.underlay.cost:TransitBillingLedger.record",
    )),
    ("underlay.cost.read", (
        "repro.underlay.cost:TransitBillingLedger.bills",
        "repro.underlay.cost:TransitBillingLedger.bills_by_tier",
        "repro.underlay.cost:CostModel.per_as_bills",
        "repro.underlay.traffic:TrafficAccountant.per_as_bills",
        "repro.underlay.traffic:TrafficAccountant.peak_transit_mbps",
    )),
    ("overlay.gnutella.handlers", (
        "repro.overlay.gnutella.node:GnutellaNode.on_*",
    )),
    ("overlay.gnutella.flood", (
        "repro.overlay.gnutella.flood:FloodKernel.expand_query",
        "repro.overlay.gnutella.flood:FloodKernel.expand_ping_round",
    )),
    ("collection.oracle.rank", (
        "repro.collection.oracle:ISPOracle.rank",
        "repro.collection.oracle:ISPOracle.top_k",
        "repro.collection.oracle:ISPOracle.best",
    )),
    ("overlay.kademlia.handlers", (
        "repro.overlay.kademlia.node:KademliaNode.on_*",
        "repro.overlay.kademlia.node:KademliaNode.iterative_find_node",
        "repro.overlay.kademlia.node:KademliaNode.iterative_find_value",
        "repro.overlay.kademlia.node:KademliaNode.store_value",
        "repro.overlay.kademlia.node:KademliaNode.bootstrap",
    )),
    ("overlay.kademlia.routing_table", (
        "repro.overlay.kademlia.routing_table:RoutingTable.closest",
        "repro.overlay.kademlia.routing_table:RoutingTable.update",
    )),
    ("sim.requests", (
        "repro.sim.requests:RequestManager.issue",
        "repro.sim.requests:RequestManager.issue_many",
        "repro.sim.requests:RequestManager.resolve",
        "repro.sim.requests:RequestManager.cancel",
        "repro.sim.requests:RequestManager.cancel_all",
    )),
    ("service.load", (
        "repro.service.load:OpenLoopDriver.run",
        "repro.service.load:ClosedLoopDriver.run",
    )),
    ("overlay.bittorrent.tracker.announce", (
        "repro.overlay.bittorrent.tracker:Tracker.announce",
    )),
    ("overlay.bittorrent.flowswarm", (
        "repro.overlay.bittorrent.flowswarm:FlowSwarmSimulation.populate",
        "repro.overlay.bittorrent.flowswarm:FlowSwarmSimulation.run",
        "repro.overlay.bittorrent.flowswarm:FlowSwarmSimulation.report",
    )),
    ("sim.flows.waterfill", (
        "repro.sim.flows:single_link_waterfill",
        "repro.sim.flows:max_min_rates",
    )),
    ("other", ()),
)

#: Scheduled callbacks go to the layer of their defining module (longest
#: prefix wins); callbacks from any other module go to ``other``.
CALLBACK_LAYERS: tuple[tuple[str, str], ...] = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.messages", "sim.messages"),
    ("repro.sim.requests", "sim.requests"),
    ("repro.sim.flows", "sim.flows.waterfill"),
    ("repro.overlay.gnutella", "overlay.gnutella.handlers"),
    ("repro.overlay.gnutella.flood", "overlay.gnutella.flood"),
    ("repro.overlay.kademlia", "overlay.kademlia.handlers"),
    ("repro.overlay.bittorrent", "overlay.bittorrent.flowswarm"),
    ("repro.service", "service.load"),
)

#: Work-size counters: layer -> function of the wrapped call's positional
#: arguments (``self`` included) giving the items that call handled.
ITEM_COUNTS: dict[str, Callable[[tuple], int]] = {
    "collection.oracle.rank": lambda args: len(args[2]),
    "sim.flows.waterfill": lambda args: len(args[1]),
}

#: Layers whose ``calls`` count only some of their functions, and the
#: metric name that count is reported under.
COUNTED_CALLS: dict[str, tuple[frozenset[str], str]] = {
    "sim.messages": (frozenset({"send", "send_many"}), "sim.messages.send.calls"),
}

#: Classes whose instances the traced run keeps, to read counters and
#: conservation invariants from outside once the workload ends.
CAPTURED: tuple[str, ...] = (
    "repro.sim.engine:Simulation",
    "repro.sim.messages:MessageBus",
    "repro.underlay.traffic:TrafficAccountant",
    "repro.overlay.gnutella.network:GnutellaNetwork",
    "repro.sim.requests:RequestManager",
    "repro.overlay.bittorrent.flowswarm:FlowSwarmSimulation",
    "repro.service.load:LoadReport",
)


@dataclass
class LayerStats:
    """Aggregated spans of one layer."""

    name: str
    calls: int = 0
    items: int = 0
    self_s: float = 0.0
    parents: dict[str, int] = field(default_factory=lambda: defaultdict(int))


def _resolve(spec: str) -> tuple[Any, str]:
    """``module:Class.attr`` -> (Class, attr); ``module:func`` -> (module, func)."""
    module_name, _, path = spec.partition(":")
    owner: Any = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class LayerTracer:
    """Span wrappers over the layer table; one instance per traced pass."""

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = {
            name: LayerStats(name) for name, _ in LAYERS
        }
        self.captured: dict[str, list[Any]] = defaultdict(list)
        # open spans, [LayerStats, child seconds]; the bottom frame is the
        # root, whose child time is the time top-level spans cover
        self._stack: list[list] = [[LayerStats("root"), 0.0]]
        self._undo: list[tuple[Any, str, Any]] = []
        self._runners: dict[str, Callable[..., Any]] = {}
        self._module_layer: dict[str, str] = {}

    # -- spans -------------------------------------------------------------
    def _span(self, stats: LayerStats, fn: Callable, counted: bool) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        items = ITEM_COUNTS.get(stats.name) if counted else None
        parents = stats.parents

        def span(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1][0]
            if parent is not stats:
                parents[parent.name] += 1
                if counted:
                    stats.calls += 1
                    if items is not None:
                        stats.items += items(args)
            frame = [stats, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats.self_s += dt - frame[1]
                stack[-1][1] += dt

        span.__wrapped__ = fn
        return span

    @property
    def root_s(self) -> float:
        """Wall time covered by top-level spans."""
        return self._stack[0][1]

    def _callback_layer(self, callback: Any) -> str:
        func = getattr(callback, "func", callback)  # functools.partial
        module = getattr(func, "__module__", None) or ""
        layer = self._module_layer.get(module)
        if layer is None:
            layer, best = "other", -1
            for prefix, name in CALLBACK_LAYERS:
                if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > best:
                    layer, best = name, len(prefix)
            self._module_layer[module] = layer
        return layer

    def _runner(self, callback: Any) -> Callable[..., Any]:
        """The per-layer trampoline a scheduled callback runs through:
        ``runner(callback, *args)`` calls ``callback(*args)`` in a span."""
        layer = self._callback_layer(callback)
        runner = self._runners.get(layer)
        if runner is None:
            runner = self._span(self.layers[layer], _invoke, False)
            runner.perfbench_runner = True
            self._runners[layer] = runner
        return runner

    # -- patching ----------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, owner: Any, attr: str, layer: str) -> None:
        stats = self.layers[layer]
        counted = layer not in COUNTED_CALLS or attr in COUNTED_CALLS[layer][0]
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(owner, attr, classmethod(self._span(stats, raw.__func__, counted)))
            return
        self._set(owner, attr, self._span(stats, raw, counted))
        if isinstance(owner, type(sys)):
            # modules that imported the function by name hold their own
            # reference; rebind those too
            for name, module in list(sys.modules.items()):
                if (name.startswith("repro.") and module is not owner
                        and module.__dict__.get(attr) is raw):
                    self._set(module, attr, getattr(owner, attr))

    def _capture(self, cls: type) -> None:
        original = cls.__dict__["__init__"]
        bucket = self.captured[cls.__name__]

        def __init__(obj: Any, *args: Any, **kwargs: Any) -> None:
            original(obj, *args, **kwargs)
            bucket.append(obj)

        self._set(cls, "__init__", __init__)

    def install(self) -> None:
        """Patch every layer function, the scheduler and the captured classes."""
        for layer, specs in LAYERS:
            for spec in specs:
                owner, attr = _resolve(spec)
                if attr == "on_*":
                    names = sorted(a for a in owner.__dict__ if a.startswith("on_"))
                else:
                    names = [attr]
                for name in names:
                    self._wrap(owner, name, layer)
        for spec in CAPTURED:
            owner, attr = _resolve(spec)
            self._capture(getattr(owner, attr))
        self._patch_scheduler()

    def _patch_scheduler(self) -> None:
        """Wrap ``schedule_at``/``schedule_many`` as ``sim.engine`` spans
        that route each callback through its layer's trampoline."""
        from repro.sim.engine import Simulation

        runner = self._runner
        schedule_at = Simulation.__dict__["schedule_at"]
        schedule_many = Simulation.__dict__["schedule_many"]

        def routed_at(sim: Any, at: float, callback: Any, *args: Any) -> Any:
            return schedule_at(sim, at, runner(callback), callback, *args)

        def routed_many(sim: Any, items: Any) -> Any:
            return schedule_many(
                sim, ((d, runner(cb), (cb, *a)) for d, cb, a in items)
            )

        engine = self.layers["sim.engine"]
        self._set(Simulation, "schedule_at", self._span(engine, routed_at, True))
        self._set(Simulation, "schedule_many", self._span(engine, routed_many, True))

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------
    def metrics(self, wall_s: float, untraced_s: float) -> dict[str, float]:
        """Every per-layer metric of :data:`PER_LAYER`, by name.

        ``wall_s`` is the traced region's wall time and ``untraced_s``
        the same region's wall time with tracing off."""
        L = self.layers
        cap = self.captured
        sims, buses = cap["Simulation"], cap["MessageBus"]
        accountants = cap["TrafficAccountant"]
        observe = L["underlay.traffic.observe"]
        walked = L["underlay.routing.path_links"].parents.get(observe.name, 0)
        queries = sum(n.bus.stats.by_kind.get("QUERY", 0) for n in cap["GnutellaNetwork"])
        duplicates = sum(n.drop_counts["duplicate"] for n in cap["GnutellaNetwork"])
        requests = [m.stats for m in cap["RequestManager"]]
        reports = cap["LoadReport"]
        out: dict[str, float] = {
            "sim.engine.events": sum(s.events_processed for s in sims),
            "sim.messages.sent": sum(b.stats.sent for b in buses),
            "sim.messages.unaccounted": sum(_unaccounted(b, sims) for b in buses),
            "underlay.traffic.inter_as_share": walked / observe.calls if observe.calls else 0.0,
            "underlay.traffic.ledger_cells": sum(_ledger_cells(a) for a in accountants),
            "underlay.traffic.unbilled_bytes": sum(_unbilled(b) for b in buses),
            "overlay.gnutella.duplicate_ratio": duplicates / queries if queries else 0.0,
            "collection.oracle.rank.candidates": L["collection.oracle.rank"].items,
            "sim.requests.issued": sum(r.issued for r in requests),
            "sim.requests.retried": sum(r.retried for r in requests),
            "sim.requests.failed": sum(r.failed for r in requests),
            "service.load.offered": sum(r.offered for r in reports),
            "service.load.completed": sum(r.succeeded for r in reports),
            "service.load.failed": sum(r.offered - r.succeeded for r in reports),
            "overlay.bittorrent.flowswarm.reallocations": sum(
                s.reallocs_total for s in cap["FlowSwarmSimulation"]),
            "sim.flows.waterfill.flows": L["sim.flows.waterfill"].items,
            "other.self_s": L["other"].self_s + (wall_s - self.root_s),
            "trace.wall_s": wall_s,
            "trace.overhead_s": wall_s - untraced_s,
        }
        for name, stats in L.items():
            if name != "other":
                calls = COUNTED_CALLS.get(name, (None, f"{name}.calls"))[1]
                out[calls] = stats.calls
                out[f"{name}.self_s"] = stats.self_s
        return {name: out[name] for name, _unit, _better in PER_LAYER}

    def layer_sum_error(self, wall_s: float) -> float:
        """|layers + other - wall| / wall.  ``other`` takes the time no
        span covers, so this measures how far the layers' self times
        drift from the time their top-level spans cover."""
        self_sum = sum(stats.self_s for stats in self.layers.values())
        return abs(self_sum - self.root_s) / wall_s if wall_s > 0 else 0.0


def _invoke(callback: Any, *args: Any) -> Any:
    return callback(*args)


def is_runner(callback: Any) -> bool:
    return getattr(callback, "perfbench_runner", False)


def _in_flight(bus: Any, sims: list[Any]) -> int:
    """Deliveries of ``bus`` still queued in any simulation's event heap
    (heap entries: time, seq, callback, args, cancelled, fired)."""
    n = 0
    for sim in sims:
        for _t, _seq, callback, args, cancelled, _fired in sim._heap:
            if cancelled:
                continue
            if is_runner(callback):
                callback = args[0]
            if getattr(callback, "__self__", None) is bus and callback.__name__ == "_deliver":
                n += 1
    return n


def _unaccounted(bus: Any, sims: list[Any]) -> int:
    """sent - delivered - every dropped counter - in flight (expected 0)."""
    s = bus.stats
    return (s.sent - s.delivered - s.dropped_no_handler - s.dropped_loss
            - s.dropped_fault - _in_flight(bus, sims))


def _unbilled(bus: Any) -> int:
    """Bytes the bus sent minus bytes its traffic accountants observed
    (expected 0; buses without an accountant contribute nothing)."""
    from repro.underlay.traffic import TrafficAccountant

    accountants = [o for o in bus._observers if isinstance(o, TrafficAccountant)]
    if not accountants:
        return 0
    return sum(bus.stats.bytes_sent - a.summary.total_bytes for a in accountants)


def _ledger_cells(acct: Any) -> int:
    """Bucketed cells the accountant holds: link x bucket transit samples
    plus payer x bucket billing samples."""
    return (sum(len(b) for b in acct.transit_samples.values())
            + sum(len(b) for b in acct.billing.samples.values()))


#: The traced run's metrics: (name, unit, better).
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("sim.engine.events", "count", "lower"),
    ("sim.engine.self_s", "s", "lower"),
    ("sim.messages.sent", "count", "lower"),
    ("sim.messages.send.calls", "count", "lower"),
    ("sim.messages.self_s", "s", "lower"),
    ("sim.messages.unaccounted", "count", "lower"),
    ("underlay.delay.calls", "count", "lower"),
    ("underlay.delay.self_s", "s", "lower"),
    ("underlay.network.asn_of.calls", "count", "lower"),
    ("underlay.network.asn_of.self_s", "s", "lower"),
    ("underlay.generate.self_s", "s", "lower"),
    ("underlay.traffic.observe.calls", "count", "lower"),
    ("underlay.traffic.observe.self_s", "s", "lower"),
    ("underlay.traffic.inter_as_share", "ratio", "lower"),
    ("underlay.traffic.ledger_cells", "count", "lower"),
    ("underlay.traffic.unbilled_bytes", "bytes", "lower"),
    ("underlay.routing.path_links.calls", "count", "lower"),
    ("underlay.routing.path_links.self_s", "s", "lower"),
    ("underlay.cost.record.calls", "count", "lower"),
    ("underlay.cost.record.self_s", "s", "lower"),
    ("underlay.cost.read.self_s", "s", "lower"),
    ("overlay.gnutella.handlers.calls", "count", "lower"),
    ("overlay.gnutella.handlers.self_s", "s", "lower"),
    ("overlay.gnutella.duplicate_ratio", "ratio", "lower"),
    ("overlay.gnutella.flood.calls", "count", "lower"),
    ("overlay.gnutella.flood.self_s", "s", "lower"),
    ("collection.oracle.rank.calls", "count", "lower"),
    ("collection.oracle.rank.candidates", "count", "lower"),
    ("collection.oracle.rank.self_s", "s", "lower"),
    ("overlay.kademlia.handlers.calls", "count", "lower"),
    ("overlay.kademlia.handlers.self_s", "s", "lower"),
    ("overlay.kademlia.routing_table.calls", "count", "lower"),
    ("overlay.kademlia.routing_table.self_s", "s", "lower"),
    ("sim.requests.issued", "count", "lower"),
    ("sim.requests.retried", "count", "lower"),
    ("sim.requests.failed", "count", "lower"),
    ("sim.requests.self_s", "s", "lower"),
    ("service.load.offered", "count", "higher"),
    ("service.load.completed", "count", "higher"),
    ("service.load.failed", "count", "lower"),
    ("service.load.self_s", "s", "lower"),
    ("overlay.bittorrent.tracker.announce.calls", "count", "lower"),
    ("overlay.bittorrent.tracker.announce.self_s", "s", "lower"),
    ("overlay.bittorrent.flowswarm.self_s", "s", "lower"),
    ("overlay.bittorrent.flowswarm.reallocations", "count", "lower"),
    ("sim.flows.waterfill.calls", "count", "lower"),
    ("sim.flows.waterfill.flows", "count", "lower"),
    ("sim.flows.waterfill.self_s", "s", "lower"),
    ("other.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
