"""Checking that hardware "appears sequentially consistent" (Definition 2).

Definition 2 makes weak ordering a property of *appearance*: hardware is
weakly ordered w.r.t. a synchronization model iff it appears SC to all
software obeying the model.  Appearance is decided on results, so the
mechanical check is result-set membership: an observed outcome appears SC
iff some idealized (atomic, program-ordered) execution produces it.

:class:`SCVerifier` caches the SC result set per program, since litmus
runs test hundreds of outcomes of the same program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.core.execution import Observable
from repro.core.program import Program
from repro.sc.interleaving import enumerate_results


@dataclass
class SCViolation:
    """An observed outcome with no sequentially consistent explanation."""

    program: Program
    observed: Observable

    def describe(self) -> str:
        return (
            f"program {self.program.name!r}: outcome {self.observed.describe()} "
            "is not producible by any sequentially consistent execution"
        )


class SCVerifier:
    """Result-set membership oracle for sequential consistency.

    Prefer :func:`repro.api.verify_sc` for one-shot checks; hold an
    instance only to share the per-program result-set cache across many
    membership queries (what the litmus runner does).
    """

    def __init__(self, *, max_states: int = 2_000_000, prune: bool = True) -> None:
        self._max_states = max_states
        self._prune = prune
        self._cache: Dict[int, Set[Observable]] = {}
        self._programs: Dict[int, Program] = {}

    def sc_result_set(self, program: Program) -> Set[Observable]:
        """All observables any SC execution of ``program`` can produce."""
        key = id(program)
        if key not in self._cache:
            self._cache[key] = enumerate_results(
                program, max_states=self._max_states, prune=self._prune
            )
            self._programs[key] = program  # keep alive so id() stays unique
        return self._cache[key]

    def appears_sc(self, program: Program, observed: Observable) -> bool:
        """True iff ``observed`` is the result of some SC execution."""
        return observed in self.sc_result_set(program)

    def check_outcomes(
        self, program: Program, outcomes: Iterable[Observable]
    ) -> List[SCViolation]:
        """Return a violation record for each outcome outside the SC set."""
        sc_set = self.sc_result_set(program)
        return [
            SCViolation(program=program, observed=outcome)
            for outcome in outcomes
            if outcome not in sc_set
        ]
