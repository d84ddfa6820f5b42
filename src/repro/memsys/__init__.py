"""Machine composition and the four Figure-1 configurations."""

from repro.memsys.config import (
    BUS_CACHE,
    BUS_CACHE_SNOOP,
    BUS_NOCACHE,
    CoherenceStyle,
    FIGURE1_CONFIGS,
    InterconnectKind,
    MachineConfig,
    NET_CACHE,
    NET_CACHE_VC,
    NET_NOCACHE,
    config_by_name,
    machine_names,
)
from repro.memsys.memory import MEMORY_ENDPOINT, MemoryModule
from repro.memsys.migration import (
    MigrationController,
    MigrationError,
    MigrationRecord,
)
from repro.memsys.system import ConfigurationError, HardwareRun, System, run_program

__all__ = [
    "BUS_CACHE",
    "BUS_CACHE_SNOOP",
    "BUS_NOCACHE",
    "CoherenceStyle",
    "ConfigurationError",
    "FIGURE1_CONFIGS",
    "HardwareRun",
    "InterconnectKind",
    "MEMORY_ENDPOINT",
    "MachineConfig",
    "MemoryModule",
    "MigrationController",
    "MigrationError",
    "MigrationRecord",
    "NET_CACHE",
    "NET_CACHE_VC",
    "NET_NOCACHE",
    "System",
    "config_by_name",
    "machine_names",
    "run_program",
]
