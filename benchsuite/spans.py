"""Boundary spans around repro's layers, recorded from outside ``src/``.

A layer is a ``src/repro/<package>``.  :class:`SpanRecorder` wraps the
public entry points of each layer (the table below) for the traced run
only, and keeps what the spans measured in memory, aggregated per entry
point: calls, self time and inclusive time.  A span's self time is its
duration minus the time of the spans it encloses, so self time summed
over every entry point, plus the time outside all spans (``harness``),
is the pass's wall time.  The run is serial, so spans never overlap.

Counts come only from public surfaces: the ``METRICS`` registry (enabled
for the traced run), the values the wrapped entry points return, and the
calls and hits the spans themselves count.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

#: The layers, in report order.
LAYERS = (
    "sim", "cpu", "models", "coherence", "interconnect", "memsys",
    "campaign", "litmus", "explore", "sc", "axiomatic", "drf",
)

#: ``(layer, module, class or None, attribute)``: the spanned entry
#: points.  ``issue_gate`` on every policy class and every handler passed
#: to ``Interconnect.register`` are added by :meth:`SpanRecorder.install`.
ENTRY_POINTS = (
    ("campaign", "repro.campaign.api", None, "run_campaign"),
    ("campaign", "repro.campaign.spec", "RunSpec", "digest"),
    ("campaign", "repro.campaign.journal", "CampaignJournal", "__init__"),
    ("campaign", "repro.campaign.journal", "CampaignJournal", "record"),
    ("campaign", "repro.campaign.journal", "CampaignJournal", "sync"),
    ("campaign", "repro.campaign.cache", "ResultCache", "get"),
    ("campaign", "repro.campaign.cache", "ResultCache", "put"),
    ("memsys", "repro.campaign.spec", "RunSpec", "execute"),
    ("memsys", "repro.memsys.system", "System", "__init__"),
    ("memsys", "repro.memsys.system", "System", "run"),
    ("sim", "repro.sim.engine", "Simulator", "run"),
    ("cpu", "repro.cpu.core", "ProcessorCore", "on_wake"),
    # The core loop itself: resumes after local delays enter here, not
    # through on_wake.
    ("cpu", "repro.cpu.core", "ProcessorCore", "_advance"),
    ("cpu", "repro.cpu.write_buffer", "WriteBufferPort", "submit"),
    ("coherence", "repro.coherence.cache", "Cache", "submit"),
    ("coherence", "repro.coherence.snooping", "SnoopingCache", "submit"),
    ("interconnect", "repro.interconnect.network", "Network", "send"),
    ("interconnect", "repro.interconnect.bus", "Bus", "send"),
    # Delivery is shared by every transport, the explorer's included.
    ("interconnect", "repro.interconnect.base", "Interconnect", "_deliver"),
    ("explore", "repro.explore.explorer", None, "explore_program"),
    # The explorer's transport, so its cost is not billed to the callers.
    ("explore", "repro.explore.oracle", "ScheduledInterconnect", "send"),
    ("explore", "repro.explore.oracle", "ScheduledInterconnect",
     "_deliver_slot"),
    ("sc", "repro.sc.interleaving", None, "enumerate_results"),
    ("axiomatic", "repro.axiomatic.crosscheck", None, "allowed_outcomes"),
    ("axiomatic", "repro.axiomatic.model", "AxiomaticModel", "allows"),
    ("drf", "repro.drf.drf0", None, "check_program"),
    ("litmus", "repro.litmus.runner", "LitmusRunner", "collect"),
    ("litmus", "repro.conformance", None, "plan_conformance"),
    ("litmus", "repro.conformance", None, "judge_conformance"),
)


class Entry:
    """What the spans of one entry point measured."""

    __slots__ = ("layer", "calls", "self_s", "total_s", "hits")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        #: Calls whose result the entry point's ``hit`` predicate accepts.
        self.hits = 0


class SpanRecorder:
    """Spans at layer boundaries, aggregated in memory per entry point."""

    def __init__(self) -> None:
        self.entries: Dict[str, Entry] = {}
        #: Counts taken from the values entry points return.
        self.tallies: Counter = Counter()
        #: The pass's root frame: it collects the top-level spans' time.
        self._root = [0.0]
        self._stack: List[list] = [self._root]
        self._undo: list = []

    def begin(self) -> None:
        """Zero every record before a pass."""
        for entry in self.entries.values():
            entry.reset()
        self.tallies.clear()
        del self._stack[1:]
        self._root[0] = 0.0

    @property
    def covered_s(self) -> float:
        """Time since :meth:`begin` spent inside some span."""
        return self._root[0]

    def self_by_layer(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for entry in self.entries.values():
            totals[entry.layer] = totals.get(entry.layer, 0.0) + entry.self_s
        return totals

    # -- wrapping ---------------------------------------------------
    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        hit: Optional[Callable] = None,
        tally: Optional[Callable] = None,
    ) -> Callable:
        entry = self.entries.get(name)
        if entry is None:
            entry = self.entries[name] = Entry(layer)
        stack = self._stack
        clock = time.perf_counter
        tallies = self.tallies

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                entry.calls += 1
                entry.self_s += elapsed - frame[0]
                entry.total_s += elapsed
                stack[-1][0] += elapsed
            if hit is not None and hit(result):
                entry.hits += 1
            if tally is not None:
                tally(tallies, result)
            return result

        return span

    def _patch_attr(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, layer, module_name, attr, hit, tally) -> None:
        """Wrap a function and rebind every ``repro`` name bound to it."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = self.wrap(layer, attr, original, hit, tally)
        for name, module in list(sys.modules.items()):
            if module is None or name.split(".")[0] != "repro":
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch_attr(module, key, wrapped)

    def _patch_method(self, layer, cls, attr, hit=None, tally=None) -> None:
        name = f"{cls.__name__}.{attr}"
        self._patch_attr(
            cls, attr, self.wrap(layer, name, cls.__dict__[attr], hit, tally)
        )

    def _wrap_handler(self, handler: Callable) -> Callable:
        """A delivery handler, spanned under the layer that owns it."""
        owner = getattr(handler, "__self__", None)
        module = (
            type(owner).__module__ if owner is not None
            else getattr(handler, "__module__", "")
        )
        parts = module.split(".")
        layer = parts[1] if parts[0] == "repro" and len(parts) > 1 else "other"
        prefix = type(owner).__name__ + "." if owner is not None else ""
        return self.wrap(layer, prefix + handler.__name__, handler)

    def install(self) -> None:
        """Wrap every entry point; :meth:`uninstall` restores them."""
        from repro import api  # noqa: F401  (binds the names to rebind)
        from repro.interconnect.base import Interconnect
        from repro.models.base import OrderingPolicy

        for layer, module_name, cls_name, attr in ENTRY_POINTS:
            hit, tally = _OBSERVERS.get(attr, (None, None))
            if cls_name is None:
                self._patch_function(layer, module_name, attr, hit, tally)
            else:
                cls = getattr(importlib.import_module(module_name), cls_name)
                self._patch_method(layer, cls, attr, hit, tally)
        for cls in _class_tree(OrderingPolicy):
            if "issue_gate" in cls.__dict__:
                # A gate that returns a stall reason held the access back.
                self._patch_method(
                    "models", cls, "issue_gate", hit=lambda r: r is not None
                )
        register = Interconnect.__dict__["register"]
        recorder = self

        def register_spanned(interconnect, endpoint, handler):
            return register(
                interconnect, endpoint, recorder._wrap_handler(handler)
            )

        self._patch_attr(Interconnect, "register", register_spanned)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _class_tree(cls) -> list:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _class_tree(sub) if c not in out)
    return out


def _tally_run(tallies, result) -> None:
    tallies["messages"] += result.timings.messages
    tallies["sync_nacks"] += result.timings.sync_nacks


def _tally_explore(tallies, report) -> None:
    tallies["schedules"] += report.runs
    tallies["pruned_decisions"] += report.pruned_decisions
    tallies["outcomes"] += len(report.outcomes)


#: attribute -> (hit predicate, tally) for entry points whose return
#: value carries a count.
_OBSERVERS = {
    "execute": (None, _tally_run),
    "run_campaign": (
        None, lambda t, campaign: t.update(specs=len(campaign.results))
    ),
    "explore_program": (None, _tally_explore),
    "check_program": (
        None, lambda t, report: t.update(executions=report.executions_checked)
    ),
    "allows": (lambda allowed: allowed is True, None),
}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    delta,
    wall_s: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, by name.

    ``delta`` is the ``METRICS`` snapshot diff over the pass.  Two are
    left to the caller: ``campaign.bytes_written`` (the workload
    measures it) and ``trace.overhead_frac`` (it needs untraced passes).
    A layer's time is given as a share of the pass's wall time, so a
    workload that never enters the layer reports no time that reads
    exactly 0 s on every run.  Self times in seconds (``<layer>.self_s``)
    stay in the pass record, outside ``BENCHMARK.json``.
    """
    entries = recorder.entries
    tallies = recorder.tallies
    self_s = recorder.self_by_layer()

    def entry(name: str) -> Entry:
        return entries.get(name) or Entry("")

    def counter(name: str, **labels) -> float:
        value = delta.value(name, **labels)
        return value or 0

    def counter_total(name: str) -> float:
        """A counter summed over all its label values."""
        return sum(delta.to_dict().get(name, {}).get("samples", {}).values())

    def hist_sum(name: str) -> float:
        value = delta.value(name)
        return value["sum"] if value else 0.0

    def calls_in(layer: str) -> int:
        return sum(e.calls for e in entries.values() if e.layer == layer)

    m: Dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        m[f"{layer}.share"] = _rate(self_s.get(layer, 0.0), wall_s)

    events = counter("repro_sim_events_total")
    m["sim.runs"] = counter("repro_sim_runs_total")
    m["sim.events"] = events
    m["sim.events_per_s"] = _rate(events, m["sim.self_s"])

    m["cpu.wakes"] = entry("ProcessorCore.on_wake").calls
    m["cpu.stall_cycles"] = counter_total("repro_cpu_stall_cycles_total")

    gates = [e for n, e in entries.items() if n.endswith(".issue_gate")]
    gate_calls = sum(e.calls for e in gates)
    m["models.gate_calls"] = gate_calls
    m["models.gate_stall_ratio"] = _rate(sum(e.hits for e in gates), gate_calls)

    m["coherence.calls"] = calls_in("coherence")
    m["coherence.sync_nacks"] = tallies["sync_nacks"]

    m["interconnect.messages"] = tallies["messages"]
    m["interconnect.messages_per_s"] = _rate(
        tallies["messages"], m["interconnect.self_s"]
    )

    build = entry("System.__init__")
    m["memsys.systems"] = build.calls
    m["memsys.build_share"] = _rate(build.total_s, wall_s)

    hits = counter("repro_cache_hits_total")
    misses = counter("repro_cache_misses_total")
    puts = counter("repro_cache_puts_total")
    journal_fsyncs = counter("repro_journal_fsyncs_total")
    m["campaign.specs"] = tallies["specs"]
    m["campaign.digest_share"] = _rate(
        entry("RunSpec.digest").total_s, wall_s
    )
    m["campaign.journal_appends"] = counter("repro_journal_appends_total")
    # Every cache put is written, fsync'd, then renamed.
    m["campaign.fsyncs"] = journal_fsyncs + puts
    m["campaign.fsync_share"] = _rate(
        hist_sum("repro_journal_fsync_seconds"), wall_s
    )
    m["campaign.cache_put_share"] = _rate(
        entry("ResultCache.put").total_s, wall_s
    )
    m["campaign.cache_hits"] = hits
    m["campaign.cache_misses"] = misses
    m["campaign.cache_hit_ratio"] = _rate(hits, hits + misses)

    m["litmus.classified"] = entry("LitmusRunner.collect").calls

    schedules = tallies["schedules"]
    m["explore.schedules"] = schedules
    m["explore.pruned_decisions"] = tallies["pruned_decisions"]
    m["explore.new_outcome_ratio"] = _rate(tallies["outcomes"], schedules)
    m["explore.schedules_per_s"] = _rate(schedules, m["explore.self_s"])

    states = counter("repro_sc_states_total", kernel="results")
    taken = counter("repro_sc_transitions_total", kernel="results")
    pruned = counter("repro_sc_pruned_transitions_total", kernel="results")
    m["sc.states"] = states
    m["sc.transitions"] = taken
    m["sc.pruned_ratio"] = _rate(pruned, taken + pruned)
    m["sc.states_per_s"] = _rate(states, m["sc.self_s"])

    allows = entry("AxiomaticModel.allows")
    m["axiomatic.candidates"] = allows.calls
    m["axiomatic.allowed_ratio"] = _rate(allows.hits, allows.calls)
    m["axiomatic.candidates_per_s"] = _rate(allows.calls, m["axiomatic.self_s"])

    m["drf.executions"] = tallies["executions"]
    m["drf.executions_per_s"] = _rate(tallies["executions"], m["drf.self_s"])

    m["harness.self_s"] = wall_s - recorder.covered_s
    return m
