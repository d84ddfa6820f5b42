"""Machine configurations — the four quadrants of Figure 1.

Figure 1 analyses the same litmus program on four shared-memory
organizations: {bus, general network} x {no caches, caches}.  A
:class:`MachineConfig` names one quadrant plus its timing parameters; the
module-level constants give the paper's four, with defaults chosen so
that message reordering and write latency are actually exercised.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Tuple


class InterconnectKind(enum.Enum):
    BUS = "bus"
    NETWORK = "network"


class CoherenceStyle(enum.Enum):
    """Which coherence substrate a cached machine uses."""

    #: The Section 5.2 directory-based write-back protocol.
    DIRECTORY = "directory"
    #: Snooping MSI on the atomic bus ([RuS84]-style, Section 2.1).
    SNOOPING = "snooping"


@dataclass(frozen=True)
class MachineConfig:
    """Structural and timing parameters of a simulated machine."""

    name: str
    has_caches: bool
    interconnect: InterconnectKind
    coherence: CoherenceStyle = CoherenceStyle.DIRECTORY
    #: Bus: cycles the bus is held per transfer.
    bus_transfer_cycles: int = 4
    #: Network: base transit latency and uniform jitter on top of it.
    network_base_latency: int = 6
    network_jitter: int = 8
    #: Cache geometry (None = unbounded) and hit latency.
    cache_capacity: Optional[int] = None
    cache_hit_latency: int = 1
    #: No-cache configurations: memory-module service latency and the
    #: write buffer's drain delay.
    memory_service_latency: int = 2
    write_buffer_drain_delay: int = 2
    #: Write-buffer depth (None = unbounded).  With a bound, a write that
    #: finds the buffer full stalls its processor (``WRITE_BUFFER_FULL``).
    write_buffer_capacity: Optional[int] = None
    #: Directory retry delay for NACKed (reserved) sync requests.
    directory_retry_delay: int = 8
    #: Invalidations travel on their own virtual network (FIFO among
    #: themselves, racing data/grant traffic).  The general-interconnect
    #: behaviour that makes Section 5.3's reserve bit load-bearing.
    inval_virtual_channel: bool = False
    #: Cycles per local (non-memory) instruction.
    local_cycles: int = 1
    #: Each processor starts after a uniform random delay in
    #: [0, start_skew] cycles, so deterministic machines (e.g. the bus)
    #: still explore different interleavings across seeds.
    start_skew: int = 8

    def with_overrides(self, **kwargs) -> "MachineConfig":
        """A copy with some parameters replaced."""
        return replace(self, **kwargs)


#: Shared-bus system without caches (Figure 1, top-left).
BUS_NOCACHE = MachineConfig(
    name="bus_nocache", has_caches=False, interconnect=InterconnectKind.BUS
)

#: General interconnection network without caches (top-right).
NET_NOCACHE = MachineConfig(
    name="net_nocache", has_caches=False, interconnect=InterconnectKind.NETWORK
)

#: Shared-bus system with (coherent) caches (bottom-left).
BUS_CACHE = MachineConfig(
    name="bus_cache", has_caches=True, interconnect=InterconnectKind.BUS
)

#: General network with coherent caches (bottom-right) — the machine the
#: Section 5 implementation is designed for.
NET_CACHE = MachineConfig(
    name="net_cache", has_caches=True, interconnect=InterconnectKind.NETWORK
)

#: All four Figure-1 quadrants, in the figure's reading order.
FIGURE1_CONFIGS = (BUS_NOCACHE, NET_NOCACHE, BUS_CACHE, NET_CACHE)

#: The network+caches machine with invalidations on a separate virtual
#: network — closest to the RP3-like setting the paper designs for, and
#: the configuration where condition 5's reserve bit actually carries
#: the correctness burden (see benchmarks/bench_necessity.py).
NET_CACHE_VC = MachineConfig(
    name="net_cache_vc",
    has_caches=True,
    interconnect=InterconnectKind.NETWORK,
    inval_virtual_channel=True,
)

#: Single-bus machine with a snooping MSI protocol instead of the
#: directory — the coherence substrate of the paper's Section 2.1
#: references ([RuS84]).  Snooping requires the atomic bus.
BUS_CACHE_SNOOP = MachineConfig(
    name="bus_cache_snoop",
    has_caches=True,
    interconnect=InterconnectKind.BUS,
    coherence=CoherenceStyle.SNOOPING,
)


#: Every named machine: the table ``config_by_name`` reads and the CLI's
#: ``--machine`` choices come from.
_MACHINES = {
    c.name: c for c in FIGURE1_CONFIGS + (BUS_CACHE_SNOOP, NET_CACHE_VC)
}


def machine_names() -> Tuple[str, ...]:
    """Sorted names of every machine :func:`config_by_name` accepts."""
    return tuple(sorted(_MACHINES))


def config_by_name(name: str) -> MachineConfig:
    try:
        return _MACHINES[name]
    except KeyError:
        raise ValueError(f"unknown configuration {name!r}; choose from {sorted(_MACHINES)}")
