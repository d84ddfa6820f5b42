"""Seeded randomness for hardware timing.

All nondeterminism in a hardware run flows from one :class:`TimingRng`,
so a run is reproducible from ``(configuration, policy, program, seed)``.
Litmus campaigns sweep the seed to explore different message timings —
the hardware analogue of the idealized enumerator's interleavings.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from repro.sim.fork import Fork, Forkable


class TimingRng(Forkable):
    """A thin wrapper over :class:`random.Random` with latency helpers."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Seeded on the first draw: a machine that never draws (the
        #: explorer's, whose schedule replaces every timing) neither
        #: seeds nor, when forked, copies a generator.
        self._random: Optional[random.Random] = None

    @property
    def _rng(self) -> random.Random:
        if self._random is None:
            self._random = random.Random(self.seed)
        return self._random

    def latency(self, base: int, jitter: int) -> int:
        """A latency in ``[base, base + jitter]`` cycles."""
        if jitter <= 0:
            return base
        rng = self._random
        if rng is None:
            rng = self._rng
        # Exactly the draw ``randint(0, jitter)`` makes, minus its two
        # Python-level calls.
        return base + rng._randbelow(jitter + 1)

    def choice(self, items):
        return self._rng.choice(items)

    def randint(self, a: int, b: int) -> int:
        return self._rng.randint(a, b)

    def shuffled(self, items):
        out = list(items)
        self._rng.shuffle(out)
        return out

    def _fork(self, fork: Fork) -> "TimingRng":
        """The same stream at the same position.  ``Random.__new__`` plus
        ``setstate`` copies the state; ``Random()`` would first reseed
        from the operating system."""
        new = fork.shell(self)
        if self._random is not None:
            new._random = random.Random.__new__(random.Random)
            new._random.setstate(self._random.getstate())
        return new

    def fork(self, salt: int) -> "TimingRng":
        """A new independent stream derived from this one."""
        return TimingRng((self.seed * 1_000_003 + salt) & 0x7FFFFFFF)


def seed_stream(base_seed: int, count: int) -> Iterator[int]:
    """``count`` distinct derived seeds for a litmus campaign."""
    rng = random.Random(base_seed)
    for _ in range(count):
        yield rng.randrange(1 << 30)
