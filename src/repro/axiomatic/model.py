"""The memory models, stated declaratively as acyclicity axioms.

Every model here shares two herd-style axioms over a candidate's
relations (:class:`~repro.axiomatic.relations.Relations`):

* ``sc-per-location`` — ``acyclic(po_loc ∪ rf ∪ co ∪ fr)``: cache
  coherence, which even the RELAXED hardware provides.
* ``ghb`` — ``acyclic(ppo ∪ rfe ∪ co ∪ fr)``: the global
  happens-before, parameterised by the model's *preserved program
  order* (ppo).

Models differ only in which po-pairs survive into ppo, stated once per
model as an ordered reordering table of :class:`OrderRule` entries.  A
pair survives when it is fenced (every core drains on a ``Fence``) or
an entry matches its kinds; the same table is the issue gate of every
policy without a mechanism of its own
(:meth:`repro.models.base.OrderingPolicy.issue_gate`).

* ``SC`` keeps all of po;
* ``TSO`` drops write-to-read pairs (the store buffer);
* ``PSO`` additionally drops write-to-write pairs;
* ``WO`` (weak ordering, the *old* definition) keeps exactly the pairs
  with a synchronization endpoint;
* ``WO-DRF0`` / ``WO-DRF0R`` are **conditional** — they are
  Definition 2 itself: to a program that obeys the synchronization
  model they promise SC; to a racy program they promise nothing beyond
  coherence and fences.  This is deliberately looser than what DEF2
  hardware does for racy code (the paper makes no promise there, so
  neither do we);
* ``RELAXED`` keeps only fenced pairs.

Each policy class names the model that *soundly* describes it
(``axiomatic_model``, read by :func:`model_for_policy`); the
cross-checker (:mod:`repro.axiomatic.crosscheck`) holds the two
accountable to each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.operation import OpKind
from repro.axiomatic.relations import (
    Edge,
    LabelledEdge,
    Relations,
    find_cycle,
)
from repro.models.base import policy_class_by_name
from repro.sim.stats import StallReason

_ANY = frozenset(OpKind)
_SYNC = frozenset(k for k in OpKind if k.is_sync)
_READS = frozenset(k for k in OpKind if k.reads_memory)
_WRITES = frozenset(k for k in OpKind if k.writes_memory)


@dataclass(frozen=True)
class OrderRule:
    """A later access of a kind in ``later`` may not pass an earlier one
    of a kind in ``earlier``; hardware holding it back reports ``reason``.
    A ``port_enforced`` order is one a port with ``in_order_stores``
    keeps by itself: the issue gate skips it there, ppo keeps it."""

    earlier: FrozenSet[OpKind]
    later: FrozenSet[OpKind]
    reason: StallReason
    port_enforced: bool = False


# Atomics are full fences; stores pass neither loads nor (TSO) stores;
# loads never pass loads.
_ATOMIC_FENCES = (
    OrderRule(_SYNC, _ANY, StallReason.TSO_ATOMIC_FENCE),
    OrderRule(_ANY, _SYNC, StallReason.TSO_ATOMIC_FENCE),
)
_LOAD_STORE = OrderRule(_READS, _WRITES, StallReason.TSO_STORE_ORDER)
_STORE_STORE = OrderRule(
    _WRITES, _WRITES, StallReason.TSO_STORE_ORDER, port_enforced=True
)
_LOAD_LOAD = OrderRule(_READS, _READS - _WRITES, StallReason.TSO_LOAD_ORDER)


@dataclass(frozen=True)
class AxiomaticModel:
    """One memory model as a reordering table (plus the two shared axioms).

    ``condition`` names the Relations field gating a conditional model:
    when that field is True the model promises SC (ppo = po); when it is
    False or unknown, only the table's pairs survive.
    """

    name: str
    summary: str
    order: Tuple[OrderRule, ...] = ()
    condition: Optional[str] = None

    @cached_property
    def _kept(self) -> FrozenSet[Tuple[str, str]]:
        # Kind labels hash in C; ppo asks once per po pair.
        return frozenset(
            (a.label, b.label)
            for rule in self.order
            for a in rule.earlier
            for b in rule.later
        )

    def ppo(self, relations: Relations) -> FrozenSet[Edge]:
        """The preserved program-order pairs of a candidate."""
        if self.condition is not None and getattr(relations, self.condition):
            return relations.po
        fenced = relations.fenced
        kept = self._kept
        return frozenset(
            (a, b)
            for a, b in relations.po
            if (a.kind.label, b.kind.label) in kept or (a, b) in fenced
        )

    def witness(
        self, relations: Relations
    ) -> Optional[Tuple[str, List[LabelledEdge]]]:
        """The first violated axiom and a cycle witnessing it, or None if
        the candidate is consistent.

        Cycle edges are labelled ``po``/``rf``/``co``/``fr``; a ``ghb``
        cycle labels its program-order edges ``ppo`` unless ppo is all
        of po.
        """
        co_fr = {"co": relations.co_edges(), "fr": relations.fr_edges()}
        local = {"po": relations.po_loc_edges(), "rf": relations.rf_edges()}
        cycle = find_cycle({**local, **co_fr})
        if cycle is not None:
            return "sc-per-location", cycle
        ppo = self.ppo(relations)
        label = "po" if ppo == relations.po else "ppo"
        cycle = find_cycle({label: ppo, "rf": relations.rfe_edges(), **co_fr})
        return None if cycle is None else ("ghb", cycle)

    def violated_axiom(self, relations: Relations) -> Optional[str]:
        """The name of the first violated axiom, or None if consistent."""
        found = self.witness(relations)
        return None if found is None else found[0]

    def allows(self, relations: Relations) -> bool:
        """Whether the candidate is consistent under this model."""
        return self.witness(relations) is None


_MODELS: Tuple[AxiomaticModel, ...] = (
    AxiomaticModel(
        name="SC",
        summary="acyclic(po ∪ rfe ∪ co ∪ fr): sequential consistency",
        order=(OrderRule(_ANY, _ANY, StallReason.SC_PREVIOUS_GP),),
    ),
    AxiomaticModel(
        name="TSO",
        summary="po minus write-to-read: total store order",
        order=_ATOMIC_FENCES + (_LOAD_STORE, _STORE_STORE, _LOAD_LOAD),
    ),
    AxiomaticModel(
        name="PSO",
        summary="po minus write-to-read and write-to-write: partial "
        "store order",
        order=_ATOMIC_FENCES + (_LOAD_STORE, _LOAD_LOAD),
    ),
    AxiomaticModel(
        name="WO",
        summary="po-pairs with a sync endpoint: weak ordering by the "
        "old definition",
        # Condition (3) before condition (2): an access behind a pending
        # sync is attributed to the sync's global perform.
        order=(
            OrderRule(_SYNC, _ANY, StallReason.DEF1_WAITS_SYNC_GP),
            OrderRule(_ANY, _SYNC, StallReason.DEF1_SYNC_WAITS_PREV),
        ),
    ),
    AxiomaticModel(
        name="WO-DRF0",
        summary="Definition 2 w.r.t. DRF0: SC for DRF0 programs, "
        "coherence+fences otherwise",
        condition="drf0",
    ),
    AxiomaticModel(
        name="WO-DRF0R",
        summary="Definition 2 w.r.t. DRF0-R: SC for DRF0-R programs, "
        "coherence+fences otherwise",
        condition="drf0_r",
    ),
    AxiomaticModel(
        name="RELAXED",
        summary="fenced pairs only: coherence is the whole contract",
    ),
)

#: Model name -> model.
AXIOMATIC_MODELS: Dict[str, AxiomaticModel] = {m.name: m for m in _MODELS}


def axiomatic_model_names() -> Tuple[str, ...]:
    """Sorted names of every declared axiomatic model."""
    return tuple(sorted(AXIOMATIC_MODELS))


def model_by_name(name: str) -> AxiomaticModel:
    """Look an axiomatic model up by name (case-insensitive)."""
    key = name.upper().replace("_", "-")
    try:
        return AXIOMATIC_MODELS[key]
    except KeyError:
        raise ValueError(
            f"unknown axiomatic model {name!r}; "
            f"known: {sorted(AXIOMATIC_MODELS)}"
        )


def model_for_policy(policy_name: str) -> AxiomaticModel:
    """The axiomatic model a policy class names as ``axiomatic_model``.

    A name no policy class registers raises ``ValueError``: a misspelled
    policy must not be held to the (trivially passing) weakest model.
    """
    key = policy_name.upper().replace("_", "-")
    return model_by_name(policy_class_by_name(key).axiomatic_model)
