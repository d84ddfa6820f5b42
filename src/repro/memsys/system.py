"""System composition: program + policy + machine configuration -> a run.

:class:`System` wires processors, the ordering policy, and either the
cache-coherent substrate (caches + directory) or the cache-less one
(write buffers + memory module) onto the configured interconnect, runs
the program to quiescence, and packages the outcome as a
:class:`HardwareRun` — observable result, commit-ordered trace, and full
statistics.  This is the hardware-side counterpart of
:func:`repro.sc.interleaving.enumerate_results`: Definition 2 is checked
by comparing the two.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.coherence.cache import Cache
from repro.coherence.directory import Directory
from repro.coherence.snooping import SnoopCoordinator, SnoopingCache
from repro.core.execution import Execution, Observable
from repro.core.operation import Location, MemoryOp, Value
from repro.core.program import Program
from repro.cpu.core import ProcessorCore, core_class_by_name
from repro.cpu.write_buffer import WriteBufferPort
from repro.faults import FaultPlan, FaultyInterconnect
from repro.interconnect.bus import Bus
from repro.interconnect.network import Network
from repro.memsys.config import CoherenceStyle, InterconnectKind, MachineConfig
from repro.memsys.memory import MemoryModule
from repro.models.base import OrderingPolicy
from repro.sanitizer.checker import Violation
from repro.sanitizer.deadlock import DeadlockDiagnosis, diagnose
from repro.sim.engine import SimulationTimeout, Simulator
from repro.sim.fork import Fork, Forkable
from repro.sim.rng import TimingRng
from repro.sim.stats import Stats
from repro.trace.summary import TraceSummary
from repro.trace.tracer import TraceSpec


class ConfigurationError(ValueError):
    """Policy and machine configuration are incompatible."""


def ensure_compatible(
    policy: OrderingPolicy, config: MachineConfig, core: str = "simple"
) -> None:
    """Raise :class:`ConfigurationError` if the triple cannot be built.

    Shared by :class:`System` and the campaign layer, which pre-flights
    (policy, config, core) cells before fanning specs out to workers.
    """
    if policy.requires_cache and not config.has_caches:
        raise ConfigurationError(
            f"policy {policy.name} requires caches; configuration "
            f"{config.name!r} has none"
        )
    if (
        config.has_caches
        and config.coherence is CoherenceStyle.SNOOPING
        and config.interconnect is not InterconnectKind.BUS
    ):
        raise ConfigurationError("snooping coherence requires the atomic bus")
    core_class_by_name(core)  # unknown core names fail loudly
    if core not in policy.supported_cores:
        raise ConfigurationError(
            f"policy {policy.name} does not support core {core!r}; "
            f"supported: {list(policy.supported_cores)}"
        )


@dataclass
class HardwareRun:
    """The outcome of one hardware execution."""

    program: Program
    policy_name: str
    config_name: str
    seed: int
    observable: Observable
    stats: Stats
    cycles: int
    #: True when every processor ran its thread to completion.
    completed: bool
    halt_times: List[Optional[int]] = field(default_factory=list)
    #: True when the run was cut off by the cycle-budget watchdog (as
    #: opposed to quiescing early with unfinished threads — a deadlock).
    timed_out: bool = False
    #: Recorded trace events (None unless run with a TraceSpec asking
    #: for events) and their distilled summary (ditto).
    trace_events: Optional[tuple] = None
    trace_summary: Optional[TraceSummary] = None
    #: Sanitizer violations collected in ``log`` mode (``strict`` raises
    #: instead; empty when the sanitizer was off).
    sanitizer_violations: tuple = ()
    #: Wait-for-graph diagnosis, present whenever the run failed to
    #: complete (watchdog trip or quiet deadlock) — regardless of the
    #: sanitizer mode.
    deadlock: Optional[DeadlockDiagnosis] = None
    #: Each processor's committed operations at run end, and whether
    #: every processor halted: the inputs of :attr:`execution`.
    committed: Tuple[Tuple[MemoryOp, ...], ...] = field(default=(), repr=False)
    all_halted: bool = True

    @functools.cached_property
    def execution(self) -> Execution:
        """Trace of committed operations, ordered by commit time.

        Built on first read: most callers keep only the observable.
        """
        ops = [op for trace in self.committed for op in trace]
        ops.sort(key=lambda op: (op.commit_time, op.proc))
        return Execution(
            ops=ops, observable=self.observable, completed=self.all_halted
        )

    def describe(self) -> str:
        status = "completed" if self.completed else "DID NOT COMPLETE"
        text = (
            f"[{self.config_name}/{self.policy_name} seed={self.seed}] "
            f"{status} in {self.cycles} cycles: {self.observable.describe()}"
        )
        if self.deadlock is not None:
            text += "\n" + self.deadlock.describe()
        return text


class System(Forkable):
    """A concrete simulated machine executing one program.

    A running system can be forked (:meth:`fork`): the copy shares the
    program, policy and configuration, owns a copy of every component's
    state, and :meth:`run` continues it from the fork point.
    """

    def __init__(
        self,
        program: Program,
        policy: OrderingPolicy,
        config: MachineConfig,
        seed: int = 0,
        interconnect_factory=None,
        fault_plan: Optional[FaultPlan] = None,
        trace: Optional[TraceSpec] = None,
        sanitize: Optional[str] = None,
        core: Optional[str] = None,
    ) -> None:
        """Build the machine.

        ``interconnect_factory(sim, stats, rng) -> Interconnect``
        overrides the configured bus/network — the hook the systematic
        explorer (:mod:`repro.explore`) uses to substitute its
        schedule-controlled transport.

        ``fault_plan`` wraps the configured interconnect in a
        :class:`~repro.faults.FaultyInterconnect` driven by an RNG
        stream derived from ``(seed, plan.salt)``.  Injection is
        incompatible with a custom ``interconnect_factory`` (the
        explorer's scheduled transport is already adversarial and
        replay-exact).

        ``sanitize`` turns on the protocol-invariant checker
        (:mod:`repro.sanitizer`): ``"log"`` collects violations on the
        result, ``"strict"`` raises
        :class:`~repro.sanitizer.checker.SanitizerViolation` at the
        first one.  ``None``/``"off"`` costs one branch per cycle.

        ``core`` names the processor-core shape (``"simple"`` /
        ``"pipelined"``, see :mod:`repro.cpu.core`); ``None`` defers to
        the ``core`` attribute :func:`~repro.models.policies.policy_by_name`
        may have stamped on the policy, defaulting to ``"simple"``.
        """
        if core is None:
            core = getattr(policy, "core", "simple")
        ensure_compatible(policy, config, core)
        self.program = program
        self.policy = policy
        self.config = config
        self.core_name = core
        self._core_cls = core_class_by_name(core)
        self.seed = seed
        self.fault_plan = fault_plan
        self.trace_spec = trace
        self.sanitize_mode = sanitize
        #: Whether the processors' start events are scheduled (a fork of
        #: a running system continues instead of starting again).
        self._started = False

        self.sim = Simulator()
        self.stats = Stats()
        self.rng = TimingRng(seed)
        if trace is not None:
            # Configure before any component builds: construction-time
            # wiring (counter observers) keys off tracer.wants().
            self.sim.tracer.configure(trace)
            self.stats.tracer = self.sim.tracer
        if sanitize is not None:
            self.sim.sanitizer.configure(sanitize)
            if self.sim.sanitizer.enabled:
                self.sim.sanitizer.attach(self)

        if interconnect_factory is not None:
            if fault_plan is not None and not fault_plan.is_null:
                raise ConfigurationError(
                    "fault injection cannot wrap a custom interconnect "
                    "(schedule replay must stay exact)"
                )
            self.interconnect = interconnect_factory(self.sim, self.stats, self.rng)
        elif config.interconnect is InterconnectKind.BUS:
            self.interconnect = Bus(
                self.sim, self.stats, transfer_cycles=config.bus_transfer_cycles
            )
        else:
            # Cache-coherent machines assume per-channel FIFO delivery
            # (virtual channels): without it a Recall can overtake the
            # DataX grant it chases.  Messages on *different* channel
            # pairs still arrive with independent latencies, which is the
            # reordering Figure 1's fourth configuration relies on.
            self.interconnect = Network(
                self.sim,
                self.stats,
                self.rng,
                base_latency=config.network_base_latency,
                jitter=config.network_jitter,
                point_to_point_fifo=config.has_caches,
                inval_virtual_channel=config.inval_virtual_channel,
            )
        if fault_plan is not None and not fault_plan.is_null:
            # Duplicates are only legal where receivers deduplicate: the
            # cache-less request/response protocol carries per-request
            # tokens; the directory protocol assumes exactly-once
            # channels, as the paper does.
            self.interconnect = FaultyInterconnect(
                self.sim,
                self.stats,
                self.interconnect,
                plan=fault_plan,
                rng=self.rng.fork(0x5EED ^ fault_plan.salt),
                allow_duplicates=(
                    not config.has_caches
                    and config.interconnect is InterconnectKind.NETWORK
                ),
                inval_virtual_channel=config.inval_virtual_channel,
            )

        self.caches: List = []
        self.directory: Optional[Directory] = None
        self.snoop_coordinator: Optional[SnoopCoordinator] = None
        self.memory: Optional[MemoryModule] = None
        self.processors: List[ProcessorCore] = []

        if config.has_caches:
            self._build_cached()
        else:
            self._build_cacheless()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_cached(self) -> None:
        """Caches on either coherence substrate: the substrate's home
        (directory or snoop coordinator) picks the cache class."""
        initial_memory = dict(self.program.initial_memory)
        cache_options = dict(
            capacity=self.config.cache_capacity,
            hit_latency=self.config.cache_hit_latency,
            reserve_enabled=self.policy.reserve_enabled,
        )
        if self.config.coherence is CoherenceStyle.SNOOPING:
            coordinator = self.snoop_coordinator = SnoopCoordinator(
                self.sim,
                self.interconnect,
                self.stats,
                initial_memory=initial_memory,
                retry_delay=self.config.directory_retry_delay,
            )

            def make_cache(proc_id: int) -> SnoopingCache:
                return SnoopingCache(
                    self.sim, proc_id, self.interconnect, coordinator,
                    self.stats, **cache_options,
                )
        else:
            self.directory = Directory(
                self.sim,
                self.interconnect,
                self.stats,
                initial_memory=initial_memory,
                retry_delay=self.config.directory_retry_delay,
            )

            def make_cache(proc_id: int) -> Cache:
                return Cache(
                    self.sim, proc_id, self.interconnect, self.stats,
                    nack_mode=self.policy.nack_mode, **cache_options,
                )

        for proc_id, thread in enumerate(self.program.threads):
            cache = make_cache(proc_id)
            self.caches.append(cache)
            processor = self._core_cls(
                self.sim,
                proc_id,
                thread,
                self.policy,
                port=cache,
                stats=self.stats,
                local_cycles=self.config.local_cycles,
                cache=cache,
            )
            self.processors.append(processor)

    def _build_cacheless(self) -> None:
        self.memory = MemoryModule(
            self.sim,
            self.interconnect,
            self.stats,
            initial_memory=dict(self.program.initial_memory),
            service_latency=self.config.memory_service_latency,
        )
        for proc_id, thread in enumerate(self.program.threads):
            port = WriteBufferPort(
                self.sim,
                proc_id,
                self.interconnect,
                self.stats,
                drain_delay=self.config.write_buffer_drain_delay,
                capacity=self.config.write_buffer_capacity,
            )
            processor = self._core_cls(
                self.sim,
                proc_id,
                thread,
                self.policy,
                port=port,
                stats=self.stats,
                local_cycles=self.config.local_cycles,
                cache=None,
            )
            self.processors.append(processor)

    # ------------------------------------------------------------------
    # Forking
    # ------------------------------------------------------------------
    def fork(self) -> "System":
        """An independent copy of this machine in its current state.

        Called from inside an event handler, the copy replays that event
        from its start (see :meth:`Simulator._fork
        <repro.sim.engine.Simulator._fork>`), so fork before the handler
        changes any state — as the explorer does at a choice point.
        """
        return Fork()(self)

    def _fork(self, fork: Fork) -> "System":
        new = fork.shell(self)
        memo = fork.memo
        new.sim = memo.get(id(self.sim)) or self.sim._fork(fork)
        new.stats = memo.get(id(self.stats)) or self.stats._fork(fork)
        new.rng = memo.get(id(self.rng)) or self.rng._fork(fork)
        new.interconnect = (
            memo.get(id(self.interconnect)) or self.interconnect._fork(fork)
        )
        new.caches = [
            memo.get(id(cache)) or cache._fork(fork) for cache in self.caches
        ]
        if self.directory is not None:
            new.directory = fork(self.directory)
        if self.snoop_coordinator is not None:
            new.snoop_coordinator = fork(self.snoop_coordinator)
        if self.memory is not None:
            new.memory = fork(self.memory)
        new.processors = [
            memo.get(id(p)) or p._fork(fork) for p in self.processors
        ]
        return new

    def release(self) -> None:
        """Break the machine's reference cycles, so that dropping its
        last reference frees it at once, with no cyclic-collector pass.

        Called once a run is packaged (:meth:`RunSpec.run_system
        <repro.campaign.spec.RunSpec.run_system>`); the machine cannot
        run on afterwards.  Its stats, its oracle and the packaged
        outcome stay readable.  What forks share (program, policy,
        config, frozen messages, a disabled tracer or sanitizer) is
        left as it is, so a released parent's held forks still run.
        """
        self.sim.release()
        # The handler table holds a bound method of every component;
        # a fault-injecting transport keeps it on the inner one.
        transport = self.interconnect
        if isinstance(transport, FaultyInterconnect):
            transport = transport.inner
        transport._handlers = {}
        for cache in self.caches:
            counter = cache.counter
            counter._clock = counter.observer = None
            counter._on_zero = []
            cache.on_sync_nack = []
        if self.snoop_coordinator is not None:
            self.snoop_coordinator.caches = []
        for processor in self.processors:
            # Only accesses still in flight hold listeners: the core's.
            for access in processor.pending_accesses:
                access._on_value, access._on_commit, access._on_gp = [], [], []

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 1_000_000) -> HardwareRun:
        """Run to quiescence (or the watchdog) and package the outcome;
        a forked system continues from where its parent was."""
        if not self._started:
            self._started = True
            for processor in self.processors:
                skew = self.rng.latency(0, self.config.start_skew)
                self.sim.schedule(skew, processor.start)
        timed_out = False
        try:
            cycles = self.sim.run(max_cycles=max_cycles)
        except SimulationTimeout:
            cycles = self.sim.now
            timed_out = True
        all_halted = all(p.halted for p in self.processors)
        completed = all_halted and not timed_out
        self.stats.end_all_stalls(self.sim.now)
        self.stats.total_cycles = cycles

        # A failed run always gets a wait-for diagnosis (watchdog trip
        # or quiet deadlock); the sanitizer's end-of-run checks run only
        # when enabled — in strict mode a violation raises from here.
        deadlock = diagnose(self, timed_out=timed_out) if not completed else None
        sanitizer = self.sim.sanitizer
        if sanitizer.enabled:
            sanitizer.finish(completed=completed)
        violations = tuple(sanitizer.violations)

        trace_events = trace_summary = None
        spec = self.trace_spec
        if spec is not None:
            recorded = self.sim.tracer.snapshot()
            if spec.events:
                trace_events = recorded
            if spec.summary:
                trace_summary = TraceSummary.from_events(
                    recorded, dropped=self.sim.tracer.dropped
                )

        return HardwareRun(
            program=self.program,
            policy_name=self.policy.name,
            config_name=self.config.name,
            seed=self.seed,
            observable=self._observable(),
            stats=self.stats,
            cycles=cycles,
            completed=completed,
            halt_times=self._halt_times_by_thread(),
            timed_out=timed_out,
            trace_events=trace_events,
            trace_summary=trace_summary,
            sanitizer_violations=violations,
            deadlock=deadlock,
            committed=tuple(tuple(p.trace) for p in self.processors),
            all_halted=all_halted,
        )

    # ------------------------------------------------------------------
    # Outcome extraction
    # ------------------------------------------------------------------
    def final_memory(self) -> Dict[Location, Value]:
        """Memory contents with dirty cache lines folded in."""
        locations = self.program.locations()
        home = self.directory or self.snoop_coordinator
        if home is not None:
            memory = {loc: home.memory_value(loc) for loc in locations}
            for cache in self.caches:
                memory.update(cache.dirty_lines())
            return memory
        memory = {loc: self.program.initial_value(loc) for loc in locations}
        if self.memory is not None:
            memory.update(self.memory.contents())
        return memory

    def _observable(self) -> Observable:
        # Register files are keyed by *logical* processor (thread id):
        # after a migration the thread's registers live on the target.
        registers = [dict() for _ in self.processors]
        for processor in self.processors:
            registers[processor.logical_proc] = processor.regs.as_dict()
        return Observable.create(registers=registers, memory=self.final_memory())

    def _halt_times_by_thread(self) -> List[Optional[int]]:
        halts: List[Optional[int]] = [None] * len(self.processors)
        for processor in self.processors:
            halts[processor.logical_proc] = processor.halt_time
        return halts


def run_program(
    program: Program,
    policy: OrderingPolicy,
    config: MachineConfig,
    seed: int = 0,
    max_cycles: int = 1_000_000,
    fault_plan: Optional[FaultPlan] = None,
    trace: Optional[TraceSpec] = None,
    sanitize: Optional[str] = None,
) -> HardwareRun:
    """One-shot convenience: build a system and run it."""
    system = System(
        program, policy, config, seed=seed, fault_plan=fault_plan,
        trace=trace, sanitize=sanitize,
    )
    try:
        return system.run(max_cycles=max_cycles)
    finally:
        system.release()
