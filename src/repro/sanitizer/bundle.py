"""Replayable repro bundles: a failing ``RunSpec`` as a JSON document.

A bundle is the artifact triage leaves behind: the (usually shrunk)
spec that reproduces a failure, its seed, and the failure signature the
replay is expected to match — everything needed to re-run the failure
on another checkout with ``repro replay bundle.json``.

Two properties the tests rely on:

* **Deterministic bytes.**  ``to_json`` serialises with sorted keys and
  no timestamps, so the same failing spec always produces a
  byte-identical bundle (shrinking is deterministic too, which makes
  bundles diffable and cache-friendly).
* **Closed codec.**  The instruction codec enumerates the full
  instruction set explicitly; an unknown instruction raises instead of
  silently round-tripping into something else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.instructions import (
    Arith,
    BinOp,
    Branch,
    Condition,
    Fence,
    FetchAndAdd,
    Halt,
    Instruction,
    Jump,
    Load,
    Mov,
    Nop,
    Store,
    Swap,
    SyncLoad,
    SyncStore,
    TestAndSet,
)
from repro.core.program import Program, Thread
from repro.faults import FaultPlan
from repro.memsys.config import (
    CoherenceStyle,
    InterconnectKind,
    MachineConfig,
)

#: Format tag written into every bundle; bump on incompatible changes.
BUNDLE_FORMAT = "repro-bundle/v1"


# ---------------------------------------------------------------------------
# Instruction codec
# ---------------------------------------------------------------------------

def _instruction_to_dict(instr: Instruction) -> Dict[str, Any]:
    if isinstance(instr, Load):
        return {"op": "load", "dest": instr.dest, "location": instr.location}
    if isinstance(instr, Store):
        return {"op": "store", "location": instr.location, "src": instr.src}
    if isinstance(instr, SyncLoad):
        return {"op": "sync_load", "dest": instr.dest, "location": instr.location}
    if isinstance(instr, SyncStore):
        return {"op": "sync_store", "location": instr.location, "src": instr.src}
    if isinstance(instr, TestAndSet):
        return {"op": "test_and_set", "dest": instr.dest, "location": instr.location}
    if isinstance(instr, Swap):
        return {
            "op": "swap",
            "dest": instr.dest,
            "location": instr.location,
            "src": instr.src,
        }
    if isinstance(instr, FetchAndAdd):
        return {
            "op": "fetch_and_add",
            "dest": instr.dest,
            "location": instr.location,
            "src": instr.src,
        }
    if isinstance(instr, Arith):
        return {
            "op": "arith",
            "binop": instr.op.value,
            "dest": instr.dest,
            "a": instr.a,
            "b": instr.b,
        }
    if isinstance(instr, Mov):
        return {"op": "mov", "dest": instr.dest, "src": instr.src}
    if isinstance(instr, Nop):
        return {"op": "nop"}
    if isinstance(instr, Fence):
        return {"op": "fence"}
    if isinstance(instr, Branch):
        return {
            "op": "branch",
            "cond": instr.cond.value,
            "a": instr.a,
            "b": instr.b,
            "target": instr.target,
        }
    if isinstance(instr, Jump):
        return {"op": "jump", "target": instr.target}
    if isinstance(instr, Halt):
        return {"op": "halt"}
    raise TypeError(f"no bundle codec for instruction {instr!r}")


def _instruction_from_dict(data: Dict[str, Any]) -> Instruction:
    op = data["op"]
    if op == "load":
        return Load(data["dest"], data["location"])
    if op == "store":
        return Store(data["location"], data["src"])
    if op == "sync_load":
        return SyncLoad(data["dest"], data["location"])
    if op == "sync_store":
        return SyncStore(data["location"], data["src"])
    if op == "test_and_set":
        return TestAndSet(data["dest"], data["location"])
    if op == "swap":
        return Swap(data["dest"], data["location"], data["src"])
    if op == "fetch_and_add":
        return FetchAndAdd(data["dest"], data["location"], data["src"])
    if op == "arith":
        return Arith(BinOp(data["binop"]), data["dest"], data["a"], data["b"])
    if op == "mov":
        return Mov(data["dest"], data["src"])
    if op == "nop":
        return Nop()
    if op == "fence":
        return Fence()
    if op == "branch":
        return Branch(Condition(data["cond"]), data["a"], data["b"], data["target"])
    if op == "jump":
        return Jump(data["target"])
    if op == "halt":
        return Halt()
    raise ValueError(f"unknown instruction op {op!r} in bundle")


# ---------------------------------------------------------------------------
# Program / config / spec codecs
# ---------------------------------------------------------------------------

def _program_to_dict(program: Program) -> Dict[str, Any]:
    return {
        "name": program.name,
        "threads": [
            {
                "name": thread.name,
                "instructions": [
                    _instruction_to_dict(i) for i in thread.instructions
                ],
                "labels": dict(sorted(thread.labels.items())),
            }
            for thread in program.threads
        ],
        "initial_memory": dict(sorted(program.initial_memory.items())),
    }


def _program_from_dict(data: Dict[str, Any]) -> Program:
    threads = [
        Thread(
            t["name"],
            tuple(_instruction_from_dict(i) for i in t["instructions"]),
            dict(t.get("labels", {})),
        )
        for t in data["threads"]
    ]
    return Program(
        threads,
        initial_memory=data.get("initial_memory") or {},
        name=data.get("name", "program"),
    )


def _config_to_dict(config: MachineConfig) -> Dict[str, Any]:
    return {
        "name": config.name,
        "has_caches": config.has_caches,
        "interconnect": config.interconnect.value,
        "coherence": config.coherence.value,
        "bus_transfer_cycles": config.bus_transfer_cycles,
        "network_base_latency": config.network_base_latency,
        "network_jitter": config.network_jitter,
        "cache_capacity": config.cache_capacity,
        "cache_hit_latency": config.cache_hit_latency,
        "memory_service_latency": config.memory_service_latency,
        "write_buffer_drain_delay": config.write_buffer_drain_delay,
        "write_buffer_capacity": config.write_buffer_capacity,
        "directory_retry_delay": config.directory_retry_delay,
        "inval_virtual_channel": config.inval_virtual_channel,
        "local_cycles": config.local_cycles,
        "start_skew": config.start_skew,
    }


def _config_from_dict(data: Dict[str, Any]) -> MachineConfig:
    kwargs = dict(data)
    kwargs["interconnect"] = InterconnectKind(kwargs["interconnect"])
    kwargs["coherence"] = CoherenceStyle(kwargs["coherence"])
    return MachineConfig(**kwargs)


def _faults_to_dict(plan: Optional[FaultPlan]) -> Optional[Dict[str, Any]]:
    if plan is None:
        return None
    return {
        "delay_jitter": plan.delay_jitter,
        "reorder_pct": plan.reorder_pct,
        "reorder_delay": plan.reorder_delay,
        "duplicate_pct": plan.duplicate_pct,
        "salt": plan.salt,
    }


def spec_to_dict(spec) -> Dict[str, Any]:
    """Encode a :class:`~repro.campaign.spec.RunSpec` as plain JSON data.

    Trace requests are deliberately dropped: a bundle reproduces the
    *failure*, and the replayer decides whether to trace.
    """
    return {
        "program": _program_to_dict(spec.program),
        "policy": {
            "name": spec.policy.name,
            "params": [list(pair) for pair in spec.policy.params],
        },
        "config": _config_to_dict(spec.config),
        "seed": spec.seed,
        "max_cycles": spec.max_cycles,
        "schedule": list(spec.schedule) if spec.schedule is not None else None,
        "faults": _faults_to_dict(spec.faults),
        "sanitize": spec.sanitize,
    }


def spec_from_dict(data: Dict[str, Any]):
    """Decode :func:`spec_to_dict` output back into a ``RunSpec``,
    refusing an older bundle whose channel keys name another transport
    than the config now gives its replay."""
    from repro.campaign.spec import PolicySpec, RunSpec

    policy = PolicySpec(
        name=data["policy"]["name"],
        params=tuple(tuple(pair) for pair in data["policy"]["params"]),
    )
    faults_data = data.get("faults")
    schedule = data.get("schedule")
    config = _config_from_dict(data["config"])
    channel = schedule is not None and config.inval_virtual_channel
    relaxed = data.get("relaxed_request_channels", False)
    recorded = data.get("inval_virtual_channel", channel)
    if relaxed or recorded != channel:
        raise ValueError(
            f"bundle spec sets relaxed_request_channels={relaxed}, "
            f"inval_virtual_channel={recorded}; a replay on {config.name!r} "
            f"now uses no relaxed channels, inval_virtual_channel={channel}"
        )
    return RunSpec(
        program=_program_from_dict(data["program"]),
        policy=policy,
        config=config,
        seed=data["seed"],
        max_cycles=data["max_cycles"],
        schedule=tuple(schedule) if schedule is not None else None,
        faults=FaultPlan(**faults_data) if faults_data is not None else None,
        sanitize=data.get("sanitize"),
    )


# ---------------------------------------------------------------------------
# The bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReproBundle:
    """A minimized failing run plus the signature its replay must match."""

    spec: Any  # RunSpec (typed loosely to keep this module import-light)
    signature: str
    kind: str
    message: str = ""
    label: str = ""
    #: Shrinking provenance: oracle runs spent, whether the run budget
    #: was exhausted, and the instruction counts before/after.
    shrink_runs: int = 0
    shrink_exhausted: bool = False
    original_instructions: int = 0
    minimized_instructions: int = 0

    def to_json(self) -> str:
        payload = {
            "format": BUNDLE_FORMAT,
            "signature": self.signature,
            "kind": self.kind,
            "message": self.message,
            "label": self.label,
            "shrink": {
                "runs": self.shrink_runs,
                "exhausted": self.shrink_exhausted,
                "original_instructions": self.original_instructions,
                "minimized_instructions": self.minimized_instructions,
            },
            "spec": spec_to_dict(self.spec),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ReproBundle":
        payload = json.loads(text)
        fmt = payload.get("format")
        if fmt != BUNDLE_FORMAT:
            raise ValueError(
                f"unsupported bundle format {fmt!r} (expected {BUNDLE_FORMAT!r})"
            )
        shrink = payload.get("shrink") or {}
        return cls(
            spec=spec_from_dict(payload["spec"]),
            signature=payload["signature"],
            kind=payload["kind"],
            message=payload.get("message", ""),
            label=payload.get("label", ""),
            shrink_runs=shrink.get("runs", 0),
            shrink_exhausted=shrink.get("exhausted", False),
            original_instructions=shrink.get("original_instructions", 0),
            minimized_instructions=shrink.get("minimized_instructions", 0),
        )

    def replay(self):
        """Re-execute the bundled spec; return ``(result, signature, ok)``.

        ``ok`` is True when the replayed failure signature matches the
        bundle's recorded signature — the determinism contract a bundle
        certifies.
        """
        from repro.campaign.spec import execute_spec_guarded
        from repro.sanitizer.shrink import failure_signature

        result = execute_spec_guarded(self.spec)
        signature = failure_signature(result)
        return result, signature, signature == self.signature
