"""The axiomatic (declarative) side of every memory model.

Where :mod:`repro.models` says what a processor may *do*, this package
says what an execution may *be*: po/rf/co/fr relations over candidate
executions (:mod:`~repro.axiomatic.relations`), herd-style acyclicity
axioms per model (:mod:`~repro.axiomatic.model`), an exhaustive
candidate enumerator for straight-line programs
(:mod:`~repro.axiomatic.candidates`), and the cross-checker that holds
the two formulations accountable to each other over the litmus catalog
(:mod:`~repro.axiomatic.crosscheck`).
"""

from repro.axiomatic.candidates import (
    Candidate,
    CandidateBudgetExceeded,
    NotStraightLine,
    enumerate_candidates,
    is_straightline,
)
from repro.axiomatic.crosscheck import (
    CrosscheckCell,
    CrosscheckReport,
    allowed_outcomes,
    crosscheck_models,
)
from repro.axiomatic.model import (
    AXIOMATIC_MODELS,
    AxiomaticModel,
    axiomatic_model_names,
    model_by_name,
    model_for_policy,
)
from repro.axiomatic.relations import (
    Relations,
    ThinAirError,
    find_cycle,
    reads_from,
    relations_from_execution,
)

__all__ = [
    "AXIOMATIC_MODELS",
    "AxiomaticModel",
    "Candidate",
    "CandidateBudgetExceeded",
    "CrosscheckCell",
    "CrosscheckReport",
    "NotStraightLine",
    "Relations",
    "ThinAirError",
    "allowed_outcomes",
    "axiomatic_model_names",
    "crosscheck_models",
    "enumerate_candidates",
    "find_cycle",
    "is_straightline",
    "model_by_name",
    "model_for_policy",
    "reads_from",
    "relations_from_execution",
]
