"""Per-thread register files.

Registers are named by strings (``"r1"``, ``"tmp"``, ...).  Unwritten
registers read as 0, matching the convention that memory also starts
zeroed (see :data:`repro.core.operation.INITIAL_VALUE`).
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Tuple

Register = str


class RegisterFile:
    """A mutable mapping of register names to integer values.

    The register file is deliberately tiny: it supports exactly what the
    instruction set needs (read, write, snapshot) and hashable snapshots
    so the interleaving enumerator can memoize machine states.
    """

    __slots__ = ("_regs",)

    def __init__(self, initial: Mapping[Register, int] = ()) -> None:
        self._regs: Dict[Register, int] = dict(initial)

    def read(self, reg: Register) -> int:
        """Return the register's value; unwritten registers are 0."""
        return self._regs.get(reg, 0)

    def write(self, reg: Register, value: int) -> None:
        if not isinstance(value, int):
            raise TypeError(f"register {reg!r} must hold an int, got {value!r}")
        self._regs[reg] = value

    def snapshot(self) -> Tuple[Tuple[Register, int], ...]:
        """A hashable, canonical view of the register state.

        Zero-valued entries are dropped so that an explicitly-written 0 is
        indistinguishable from the default — which is exactly the
        semantics of :meth:`read`.
        """
        return tuple(sorted((r, v) for r, v in self._regs.items() if v != 0))

    def as_dict(self) -> Dict[Register, int]:
        """A plain-dict copy (zero-defaulted entries omitted)."""
        return {r: v for r, v in self._regs.items() if v != 0}

    def copy(self) -> "RegisterFile":
        return RegisterFile(self._regs)

    def __iter__(self) -> Iterator[Register]:
        return iter(self._regs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegisterFile):
            return NotImplemented
        return self.snapshot() == other.snapshot()

    def __hash__(self) -> int:
        return hash(self.snapshot())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegisterFile({self.as_dict()})"
