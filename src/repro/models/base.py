"""Ordering policies: what a processor may do when (the models under test).

A policy encodes one side of the paper's comparison — how aggressively a
processor may overlap its memory accesses — through two hooks consulted
by :class:`repro.cpu.core.ProcessorCore`:

* :meth:`issue_gate` — may the *next* memory access be generated now?
  Returning a :class:`StallReason` stalls the processor until its state
  changes (an access event or a counter transition), when the gate is
  re-evaluated.  By default it reads the reordering table of the
  policy's ``axiomatic_model`` (Definition 1's conditions (2)/(3), the
  Scheurich-Dubois SC condition, TSO/PSO); mechanisms such as Section
  5.1's condition 4 override it.
* :meth:`block_kind` — once issued, what must the access reach before
  the processor moves past it: nothing, its value, its commit, or its
  global perform.

Policies also own the protocol treatment of synchronization accesses
(exclusive procurement, reserve bits, the read-only-sync refinement).
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.operation import OpKind
from repro.sim.stats import StallReason

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.core import ProcessorCore


class BlockKind(enum.Enum):
    """What the processor waits for before advancing past an access."""

    NONE = "none"
    VALUE = "value"
    COMMIT = "commit"
    GP = "gp"

    #: Identity hashing, in C, as for :class:`~repro.core.operation.OpKind`.
    __hash__ = object.__hash__


#: Report name -> policy class, populated by ``__init_subclass__`` so the
#: campaign layer can rebuild a policy from its picklable spec in worker
#: processes (see :class:`repro.campaign.spec.PolicySpec`).
_POLICY_REGISTRY: dict = {}


def policy_class_by_name(name: str):
    """The policy class registered under a report name."""
    try:
        return _POLICY_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; registered: {sorted(_POLICY_REGISTRY)}"
        )


def registered_policies() -> dict:
    """Report name -> policy class for every name-constructible policy.

    The single source of truth the ``repro.models`` docstring,
    :func:`repro.models.policies.policy_by_name`, and the CLI
    ``--policy`` choices all derive from — registering a policy class
    (by declaring a ``name``) makes it appear everywhere at once.
    Program-specific policies that cannot be built from a bare name
    (:class:`repro.delayset.policy.DelayPolicy`) opt out via
    ``constructible_by_name`` and stay reachable only through
    :func:`policy_class_by_name`.
    """
    return {
        name: cls
        for name, cls in _POLICY_REGISTRY.items()
        if cls.constructible_by_name
    }


def policy_names() -> Tuple[str, ...]:
    """Sorted report names of every name-constructible policy."""
    return tuple(sorted(registered_policies()))


@lru_cache(maxsize=None)
def _gate_plans(model_name: str) -> tuple:
    """Per ``in_order_stores`` (False, True): later kind label ->
    ``(earlier kind labels, reason)`` per applicable entry, in order."""
    # Lazy, like synchronization_model(): repro.axiomatic imports the
    # campaign layer, which imports this module.
    from repro.axiomatic.model import model_by_name

    order = model_by_name(model_name).order
    return tuple(
        {
            later.label: tuple(
                (frozenset(k.label for k in rule.earlier), rule.reason)
                for rule in order
                if later in rule.later and not (in_order and rule.port_enforced)
            )
            for later in OpKind
        }
        for in_order in (False, True)
    )


class OrderingPolicy:
    """Base policy: fully relaxed semantics, overridden by the models."""

    #: Human-readable identifier used in reports.
    name = "base"
    #: One-line description rendered into the registry-derived policy
    #: table (``repro.models`` docstring, ``repro.api.models()``).
    summary = "fully relaxed base semantics"
    #: Whether a bare report name is enough to construct the policy
    #: (``policy_by_name``, CLI ``--policy``); program-specific policies
    #: override to False.
    constructible_by_name = True

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Register only classes that declare their own report name, so
        # ad-hoc subclasses (test doubles) never shadow the real policy.
        if "name" in cls.__dict__:
            _POLICY_REGISTRY[cls.name] = cls

    #: The axiomatic model (:mod:`repro.axiomatic.model`) whose allowed
    #: outcomes contain everything this policy can produce; its table is
    #: the issue gate unless a subclass overrides :meth:`issue_gate`.
    axiomatic_model = "RELAXED"

    def spec_params(self):
        """Constructor kwargs that reproduce this instance, as pairs.

        The campaign layer ships these across process boundaries instead
        of the live object; subclasses with constructor state override.
        """
        return ()
    #: Name of the synchronization model this policy contracts against
    #: (Definition 2 is parametric in the model: DEF2-R promises SC only
    #: to DRF0-R software, not to all DRF0 software).  Resolved lazily
    #: via :meth:`synchronization_model` to avoid an import cycle.
    model_name = "DRF0"

    def synchronization_model(self):
        from repro.drf.models import DRF0, DRF0_R

        return {"DRF0": DRF0, "DRF0-R": DRF0_R}[self.model_name]
    #: Whether the policy only makes sense on a cache-coherent system.
    requires_cache = False
    #: Section 5.3 reserve-bit machinery on/off.
    reserve_enabled = False
    #: Reserved-line recalls: NACK+retry (True) or queue-at-owner (False).
    nack_mode = True
    #: Section 6 refinement: read-only syncs are protocol data reads.
    sync_read_as_data = False
    #: Whether a read-only sync procures its line exclusive.
    sync_read_exclusive = False

    # -- core-shape capabilities -----------------------------------------
    #: Processor-core shapes this policy is known to compose with (names
    #: from :func:`repro.cpu.core.core_names`); ``System`` refuses other
    #: pairings at construction time.
    supported_cores: Tuple[str, ...] = ("simple", "pipelined")
    #: Whether a pipelined core may satisfy a data read from its own
    #: pending uncommitted data write (store-to-load forwarding).
    #: Policies whose issue gates already forbid the overlap declare
    #: False as defense-in-depth, so a core bug can never smuggle a
    #: forward past a total-order guarantee.
    allows_store_forwarding = True

    # -- issue control ---------------------------------------------------
    def issue_gate(self, proc: "ProcessorCore", kind: OpKind) -> Optional[StallReason]:
        """Return a stall reason, or ``None`` to let the access generate:
        the reason of the first table entry some pending access matches."""
        pending = proc.pending_accesses
        if pending:
            plan = _gate_plans(self.axiomatic_model)[proc.in_order_stores]
            for earlier, reason in plan[kind.label]:
                for access in pending:
                    if access.kind.label in earlier:
                        return reason
        return None

    def block_kind(self, kind: OpKind) -> BlockKind:
        """How long the processor blocks on the access itself.

        Reads always effectively block for their value (the destination
        register is an intra-processor dependency, condition 1); the
        processor enforces that on top of what this returns.
        """
        return BlockKind.NONE

    # -- protocol treatment of synchronization ------------------------------
    def needs_exclusive(self, kind: OpKind) -> bool:
        """Whether the access must procure the line in exclusive state."""
        if kind.writes_memory:
            return True
        return kind is OpKind.SYNC_READ and self.sync_read_exclusive

    def sync_protocol(self, kind: OpKind) -> bool:
        """Whether the access is a synchronization at the protocol level."""
        if not kind.is_sync:
            return False
        if kind is OpKind.SYNC_READ and self.sync_read_as_data:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<policy {self.name}>"
