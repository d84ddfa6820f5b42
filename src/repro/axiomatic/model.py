"""The memory models, stated declaratively as acyclicity axioms.

Every model here shares two herd-style axioms over a candidate's
relations (:class:`~repro.axiomatic.relations.Relations`):

* ``sc-per-location`` — ``acyclic(po_loc ∪ rf ∪ co ∪ fr)``: cache
  coherence, which even the RELAXED hardware provides.
* ``ghb`` — ``acyclic(ppo ∪ rfe ∪ co ∪ fr)``: the global
  happens-before, parameterised by the model's *preserved program
  order* (ppo).

Models differ only in which po-pairs survive into ppo.  Fence-separated
pairs always survive — every core drains on a ``Fence`` regardless of
policy.  The strong models keep progressively more:

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

Each operational policy maps to the axiomatic model that *soundly*
describes it via :func:`model_for_policy`; the cross-checker
(:mod:`repro.axiomatic.crosscheck`) holds the two accountable to each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.core.operation import MemoryOp
from repro.axiomatic.relations import (
    Edge,
    LabelledEdge,
    Relations,
    find_cycle,
)

#: ppo predicate: whether the po-pair ``(a, b)`` is preserved.  The
#: third argument says whether the pair is fence-separated.
PpoRule = Callable[[MemoryOp, MemoryOp, bool], bool]


def _keep_all(a: MemoryOp, b: MemoryOp, fenced: bool) -> bool:
    return True


def _keep_tso(a: MemoryOp, b: MemoryOp, fenced: bool) -> bool:
    # The store buffer lets reads pass earlier writes; atomics fence.
    if fenced or a.is_sync or b.is_sync:
        return True
    return not (a.writes_memory and b.reads_memory)


def _keep_pso(a: MemoryOp, b: MemoryOp, fenced: bool) -> bool:
    # Additionally relax write-to-write: nothing waits for a plain write.
    if fenced or a.is_sync or b.is_sync:
        return True
    return not a.writes_memory


def _keep_sync_endpoint(a: MemoryOp, b: MemoryOp, fenced: bool) -> bool:
    # The old definition: order is enforced exactly around syncs.
    return fenced or a.is_sync or b.is_sync


def _keep_fenced(a: MemoryOp, b: MemoryOp, fenced: bool) -> bool:
    return fenced


@dataclass(frozen=True)
class AxiomaticModel:
    """One memory model as a ppo rule (plus the two shared axioms).

    ``condition`` names the Relations field gating a conditional model:
    when that field is True the model promises SC (ppo = po); when it is
    False or unknown, only ``ppo_rule`` survives.
    """

    name: str
    summary: str
    ppo_rule: PpoRule
    condition: Optional[str] = None

    def ppo(self, relations: Relations) -> FrozenSet[Edge]:
        """The preserved program-order pairs of a candidate."""
        if self.condition is not None and getattr(relations, self.condition):
            return relations.po
        fenced = relations.fenced
        rule = self.ppo_rule
        return frozenset(
            (a, b) for a, b in relations.po if rule(a, b, (a, b) in fenced)
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
        ppo_rule=_keep_all,
    ),
    AxiomaticModel(
        name="TSO",
        summary="po minus write-to-read: total store order",
        ppo_rule=_keep_tso,
    ),
    AxiomaticModel(
        name="PSO",
        summary="po minus write-to-read and write-to-write: partial "
        "store order",
        ppo_rule=_keep_pso,
    ),
    AxiomaticModel(
        name="WO",
        summary="po-pairs with a sync endpoint: weak ordering by the "
        "old definition",
        ppo_rule=_keep_sync_endpoint,
    ),
    AxiomaticModel(
        name="WO-DRF0",
        summary="Definition 2 w.r.t. DRF0: SC for DRF0 programs, "
        "coherence+fences otherwise",
        ppo_rule=_keep_fenced,
        condition="drf0",
    ),
    AxiomaticModel(
        name="WO-DRF0R",
        summary="Definition 2 w.r.t. DRF0-R: SC for DRF0-R programs, "
        "coherence+fences otherwise",
        ppo_rule=_keep_fenced,
        condition="drf0_r",
    ),
    AxiomaticModel(
        name="RELAXED",
        summary="fenced pairs only: coherence is the whole contract",
        ppo_rule=_keep_fenced,
    ),
)

#: Model name -> model.
AXIOMATIC_MODELS: Dict[str, AxiomaticModel] = {m.name: m for m in _MODELS}

#: Operational policy name -> the axiomatic model that soundly bounds
#: it (axiomatic-allowed ⊇ operationally-observable, on any machine
#: configuration the policy supports).
_POLICY_TO_MODEL: Dict[str, str] = {
    "SC": "SC",
    "TSO": "TSO",
    "PSO": "PSO",
    "DEF1": "WO",
    "ALL-SYNC": "WO",
    "DEF2": "WO-DRF0",
    "DEF2-R": "WO-DRF0R",
    "RELAXED": "RELAXED",
    "RP3-FENCE": "RELAXED",
}


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
    """The axiomatic model that soundly describes an operational policy.

    Policies without a declared mapping get ``RELAXED`` — the weakest
    model, hence always sound.
    """
    key = policy_name.upper().replace("_", "-")
    return AXIOMATIC_MODELS[_POLICY_TO_MODEL.get(key, "RELAXED")]
