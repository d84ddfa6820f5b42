"""Forking a running machine.

A simulated machine is a graph of components, accesses and events.  The
systematic explorer wants to branch that graph at a choice point: run
one schedule on, and start a second one from the same state without
re-simulating the prefix.  :class:`Fork` is one such branching in
progress.  It maps every original object to its copy, so an object
reached from several places (the simulator, a cache shared by a core
and the directory's view, an access held by a core, a cache and a
queued event) is copied exactly once and the copy graph has the
original's shape.

Each stateful class subclasses :class:`Forkable` and writes its own
:meth:`Forkable._fork`: it takes a shallow copy with :meth:`Fork.shell`
(which registers the copy before any recursion, so cycles resolve) and
then copies only its *mutable* state, mapping every reference to
another forkable through the fork.  The hot paths (the event queue, the
caches, the cores, the directory, accesses and counters) map a
reference with one lookup in :attr:`Fork.memo` and call ``_fork`` only
on a miss.  Everything else is shared by reference — programs,
instructions, configs, policies, frozen protocol messages, committed
trace operations, issue-time register snapshots, and a *disabled*
tracer or sanitizer, which records nothing.  Plain records that only
one owner references (cache lines, directory entries, open
transactions, a core's register file) are not forkables: their owner
copies them, with no memo entry.  The tracer and the sanitizer sit
below ``repro.sim`` in the import graph, so they define ``_fork``
without subclassing; they are never an event's owner or argument, the
only places the base class is checked.

This only works because machine state holds no closures: events are
``(time, seq, bound method, args)`` and listeners are bound methods
plus arguments, so a fork rebinds each method to the copy of its
object.  A closure would keep pointing into the original machine, and
:meth:`Fork.method` refuses it.
"""

from __future__ import annotations

from types import MethodType
from typing import Any, Callable, Dict, Tuple


class Forkable:
    """An object whose state a :class:`Fork` can copy."""

    __slots__ = ()

    def _fork(self, fork: "Fork") -> "Forkable":
        """Return this object's copy; register it with ``fork.shell``
        before following references to other forkables."""
        raise NotImplementedError


def copy_leaf(obj: Any) -> Any:
    """A shallow copy of a plain record only its owner references.

    No memo entry and no ``_fork`` call: the owner copies the record's
    mutable fields (a sharer set, say) itself.
    """
    copy = object.__new__(obj.__class__)
    copy.__dict__ = obj.__dict__.copy()
    return copy


class Fork:
    """One branching of an object graph: original id -> copy."""

    __slots__ = ("memo",)

    def __init__(self) -> None:
        #: ``id(original) -> copy``.  The hot ``_fork`` paths read it
        #: directly, as ``memo.get(id(obj)) or fork(obj)`` (a forkable
        #: defines no ``__len__`` or ``__bool__``, so a copy is truthy),
        #: and call ``_fork`` only on a miss.
        self.memo: Dict[int, Any] = {}

    def __call__(self, obj: Forkable) -> Any:
        """The copy of ``obj``, made on first request and shared after."""
        copy = self.memo.get(id(obj))
        if copy is None:
            copy = obj._fork(self)
        return copy

    def shell(self, obj: Forkable) -> Any:
        """A shallow copy of ``obj`` registered as its fork.

        The caller then replaces the fields that hold mutable state or
        references to other forkables.
        """
        copy = object.__new__(obj.__class__)
        copy.__dict__ = obj.__dict__.copy()
        self.memo[id(obj)] = copy
        return copy

    def args(self, args: Tuple) -> Tuple:
        """An event's or listener's argument tuple, forkables mapped (the
        tuple itself when it holds none)."""
        for arg in args:
            if isinstance(arg, Forkable):
                return tuple(
                    self(a) if isinstance(a, Forkable) else a for a in args
                )
        return args

    def method(self, fn: Callable) -> Callable:
        """A bound method rebound to the copy of its object.

        An owner already in the memo has been copied, so it needs no
        check; any other must be a forkable.
        """
        owner = getattr(fn, "__self__", None)
        copy = self.memo.get(id(owner))
        if copy is None:
            if not isinstance(owner, Forkable):
                raise TypeError(
                    f"cannot fork a machine holding {fn!r}: machine state "
                    "must hold bound methods of forkable components, not "
                    "closures"
                )
            copy = owner._fork(self)
        return MethodType(fn.__func__, copy)

    def calls(self, calls):
        """A list of ``(bound method, args)`` pairs, each rebound: one
        memo lookup per method whose owner is already copied."""
        memo, method, args = self.memo, self.method, self.args
        out = []
        for fn, fn_args in calls:
            owner = memo.get(id(getattr(fn, "__self__", None)))
            out.append((
                method(fn) if owner is None
                else MethodType(fn.__func__, owner),
                args(fn_args) if fn_args else fn_args,
            ))
        return out
