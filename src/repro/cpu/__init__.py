"""Processor-side components: cores, accesses, counters, write buffers."""

from repro.cpu.access import MemoryAccess
from repro.cpu.core import (
    MemoryPort,
    ProcessorCore,
    core_class_by_name,
    core_names,
)
from repro.cpu.counter import OutstandingCounter
from repro.cpu.pipelined import PipelinedCore
from repro.cpu.processor import SimpleCore
from repro.cpu.write_buffer import WriteBufferPort, port_endpoint

__all__ = [
    "MemoryAccess",
    "MemoryPort",
    "OutstandingCounter",
    "PipelinedCore",
    "ProcessorCore",
    "SimpleCore",
    "WriteBufferPort",
    "core_class_by_name",
    "core_names",
    "port_endpoint",
]
