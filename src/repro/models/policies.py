"""The concrete ordering policies: the paper's models plus TSO/PSO.

Each policy class declares a report ``name`` (which registers it — see
:func:`repro.models.base.registered_policies`), a one-line ``summary``
and its ``axiomatic_model``; the ``repro.models`` docstring,
:func:`policy_by_name`, the CLI ``--policy`` choices and
:func:`repro.axiomatic.model.model_for_policy` all derive from that
registry, so the per-class docstrings below are the canonical
documentation.  SC, DEF1, TSO, PSO and RELAXED gate issue with their
model's reordering table; the DEF2 family keeps its mechanism gate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.operation import OpKind
from repro.models.base import BlockKind, OrderingPolicy, registered_policies
from repro.sim.stats import StallReason

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.core import ProcessorCore


class RelaxedPolicy(OrderingPolicy):
    """No ordering constraints beyond intra-processor dependencies.

    The violation-producing baseline of Figure 1: writes are
    fire-and-forget and reads overtake pending writes.
    """

    name = "RELAXED"
    summary = ("no cross-access ordering beyond intra-processor "
               "dependencies (Figure 1 baseline)")


class RP3FencePolicy(RelaxedPolicy):
    """Relaxed issue with ordering only at explicit ``Fence`` instructions.

    Section 2.1: the RP3 "provides an option by which a process is
    required to wait for acknowledgements on its outstanding requests
    only on a fence instruction.  As will be apparent later, this option
    functions as a weakly ordered system."  The fence semantics live in
    the processor (policy-independent drain); this subclass exists so
    reports name the configuration.
    """

    name = "RP3-FENCE"
    summary = "relaxed issue; ordering only at explicit Fence instructions"


class SCPolicy(OrderingPolicy):
    """Sequential consistency via the Scheurich-Dubois condition."""

    name = "SC"
    summary = ("sequential consistency: nothing issues until the "
               "previous access globally performs (Section 2.1)")
    axiomatic_model = "SC"
    #: The issue gate keeps at most one access in flight, so a forward
    #: could never trigger anyway; declared off as defense-in-depth — SC
    #: hardware must never bind a read to a write that has not globally
    #: performed.
    allows_store_forwarding = False


class Def1Policy(OrderingPolicy):
    """Weak ordering, old definition (Definition 1)."""

    name = "DEF1"
    summary = ("weak ordering per Definition 1: syncs wait for all "
               "previous accesses, everything waits for pending syncs")
    #: Conditions (3) and (2): the po pairs with a sync endpoint.
    axiomatic_model = "WO"


class Def2Policy(OrderingPolicy):
    """The paper's implementation of weak ordering w.r.t. DRF0 (Section 5.3).

    Args:
        nack_mode: reserved-line recalls are NACKed for retry (default)
            or queued at the owner until the counter drains.
        miss_bound_while_reserved: optional bound on outstanding misses
            while any line is reserved (the paper's suggestion for
            keeping the counter's drain time bounded).
    """

    name = "DEF2"
    summary = ("the paper's counters + reserve bits (Section 5.3): "
               "syncs block to commit, not global perform")
    requires_cache = True
    reserve_enabled = True
    axiomatic_model = "WO-DRF0"

    def __init__(
        self,
        nack_mode: bool = True,
        miss_bound_while_reserved: Optional[int] = None,
    ) -> None:
        self.nack_mode = nack_mode
        self.miss_bound_while_reserved = miss_bound_while_reserved

    def spec_params(self):
        return (
            ("nack_mode", self.nack_mode),
            ("miss_bound_while_reserved", self.miss_bound_while_reserved),
        )

    #: "All synchronization operations will be treated as write
    #: operations by the cache coherence protocol." (Section 5.2)
    sync_read_exclusive = True

    def issue_gate(self, proc: "ProcessorCore", kind: OpKind) -> Optional[StallReason]:
        # Condition 4: no new access until previous sync ops committed.
        if any(a.kind.is_sync and not a.committed for a in proc.pending_accesses):
            return StallReason.DEF2_SYNC_COMMIT
        cache = proc.cache
        assert cache is not None, "DEF2 requires a cache-coherent system"
        # The flush-stall rule: capacity pressure on reserved lines.
        if cache.over_capacity:
            return StallReason.DEF2_FLUSH_RESERVED
        if (
            self.miss_bound_while_reserved is not None
            and cache.any_reserved()
            and len(proc.pending_accesses) >= self.miss_bound_while_reserved
        ):
            return StallReason.DEF2_MISS_BOUND
        return None

    def block_kind(self, kind: OpKind) -> BlockKind:
        # A sync op must commit before the processor proceeds past it
        # (procure the line exclusive, perform the op) — but commit only,
        # not global perform: that is the whole point of the paper.
        if kind.is_sync:
            return BlockKind.COMMIT
        return BlockKind.NONE


class Def2RPolicy(Def2Policy):
    """DEF2 with Section 6's read-only-synchronization refinement."""

    name = "DEF2-R"
    summary = ("DEF2 with Section 6's refinement: read-only syncs are "
               "protocol data reads (contracts against DRF0-R)")
    model_name = "DRF0-R"
    axiomatic_model = "WO-DRF0R"
    sync_read_as_data = True
    sync_read_exclusive = False


class AllSyncPolicy(Def2Policy):
    """Hardware that must assume *every* access could synchronize.

    Section 3's alternative: "we believe ... that slow synchronization
    operations coupled with fast reads and writes will yield better
    performance than the alternative, where hardware must assume all
    accesses could be used for synchronization (as in [Lam86])."  This
    policy is that alternative: every access gets the full DEF2
    synchronization treatment — exclusive procurement, commit-blocking,
    reserve bits, serialization through ownership — because no labels
    tell the hardware which accesses actually synchronize.

    It is trivially weakly ordered w.r.t. DRF0 (it is stronger than
    DEF2) and serves as the quantitative baseline for the paper's claim
    that hardware-visible synchronization labels buy performance.
    """

    name = "ALL-SYNC"
    summary = ("every access gets the full DEF2 synchronization "
               "treatment (Section 3's no-labels alternative)")
    axiomatic_model = "WO"
    #: Every access commit-blocks, so no write is ever pending when a
    #: read issues; declared off as defense-in-depth, like SC.
    allows_store_forwarding = False

    def sync_protocol(self, kind: OpKind) -> bool:
        return True

    def needs_exclusive(self, kind: OpKind) -> bool:
        return True

    def block_kind(self, kind: OpKind) -> BlockKind:
        # Every access is a potential synchronization: it must commit
        # before the processor proceeds.
        return BlockKind.COMMIT


class TSOPolicy(OrderingPolicy):
    """Total store order: the SPARC-V8/x86-style store-buffer model.

    The one relaxation over SC is write-to-read: a load may issue (and
    bind its value, forwarding from the processor's own buffered store
    when the locations match) while earlier stores are still draining.
    Everything else stays in program order — loads never pass loads,
    stores never pass loads or other stores — and atomic (sync)
    operations act as full fences.

    On write-buffer machines (no caches) the FIFO buffer already drains
    stores one at a time in order (the port declares
    ``in_order_stores``), so store-store order holds by construction
    and any number of stores may be buffered; cache-based machines can
    globally perform two in-flight writes to different lines out of
    order, so the gate keeps at most one store in flight there.
    """

    name = "TSO"
    summary = ("total store order: loads overtake buffered stores "
               "(with forwarding); atomics are full fences")
    axiomatic_model = "TSO"


class PSOPolicy(OrderingPolicy):
    """Partial store order: TSO with store-store order also relaxed.

    Stores to *different* locations may globally perform out of program
    order (same-location order survives through cache coherence and the
    one-transaction-per-location core rule); loads keep TSO's load-load
    and load-store ordering, and atomics remain full fences.  This is
    the SPARC-V8 PSO shape, observable on cache-based machines where
    two in-flight writes race through the directory.
    """

    name = "PSO"
    summary = ("partial store order: TSO with store-store order to "
               "different locations also relaxed")
    axiomatic_model = "PSO"


def policy_by_name(name: str, core: Optional[str] = None) -> OrderingPolicy:
    """Construct a fresh policy instance from its report name.

    The canonical, warning-free path from a name to a policy: lookup is
    backed by the class registry
    (:func:`repro.models.base.registered_policies`), so any policy that
    declares a report ``name`` is constructible here with no table to
    update.  ``core`` optionally names the processor-core shape the
    policy should run on (``"simple"``/``"pipelined"``, see
    :func:`repro.cpu.core.core_names`); the choice is validated against
    the policy's :attr:`~repro.models.base.OrderingPolicy.supported_cores`
    and stamped on the instance, where ``PolicySpec.of`` and ``System``
    pick it up.  ``None`` leaves the default (``"simple"``).
    """
    registry = registered_policies()
    try:
        policy = registry[name.upper().replace("_", "-")]()
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from {sorted(registry)}"
        )
    if core is not None:
        from repro.cpu.core import core_class_by_name

        core_class_by_name(core)  # unknown names fail loudly here
        if core not in policy.supported_cores:
            raise ValueError(
                f"policy {policy.name} does not support core {core!r}; "
                f"supported: {list(policy.supported_cores)}"
            )
        policy.core = core
    return policy
