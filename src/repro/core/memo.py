"""The derivations of the program most recently checked.

Definition 2 and Definition 3 ask one program several questions — is it
SC, does it obey DRF0 and DRF0-R, which outcomes does each axiomatic
model allow — and much of what the checkers derive to answer them does
not depend on the question: the compiled candidate table and its
coherent (rf, co) configurations, the value resolution of each
reads-from choice, the idealized machine's thread states and persistent
sets.  :func:`program_memo` keeps those derivations for **one** program,
keyed on the identity of its (frozen) :class:`Program` object: checking
another program replaces the slot, so at most one program's derivations
are ever alive, and a pass over many programs derives everything afresh
for each.

The memo also keeps the answers already given, each keyed by everything
it depends on besides the program: an axiomatic allowed set by the ppo
it was computed under (so a model with another's ppo gets that set), a
DRF verdict by its synchronization model and execution budget (so the
verdicts one walk settles for both models serve both questions).

A memo may be read by several threads at once (any library caller may
run checks on threads of its own), so it holds only facts that never
change once built and caches whose entries are the same whoever fills
them.  Budgets,
scratch buffers and per-search state stay with each call.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, TypeVar

from repro.core.program import Program

T = TypeVar("T")

#: The one live memo, or nothing before the first check.
_SLOT: List["ProgramMemo"] = []
_SLOT_LOCK = threading.Lock()


class ProgramMemo:
    """Model-independent derivations of one program, built on first use."""

    def __init__(self, program: Program) -> None:
        #: Held so the program's identity cannot be reused while the
        #: memo is alive.
        self.program = program
        self._facts: Dict[str, Any] = {}

    def fact(self, name: str, build: Callable[[Program], T]) -> T:
        """The derivation ``name``, built by ``build(program)`` on first
        use.  A build that raises stores nothing, so every call raises
        again; when two threads build at once, both get the first one
        stored."""
        value = self._facts.get(name)
        if value is None:
            value = self._facts.setdefault(name, build(self.program))
        return value


def program_memo(program: Program) -> ProgramMemo:
    """The memo of ``program``, replacing the slot's if it held another."""
    with _SLOT_LOCK:
        if _SLOT and _SLOT[0].program is program:
            return _SLOT[0]
        memo = ProgramMemo(program)
        _SLOT[:] = [memo]
        return memo
