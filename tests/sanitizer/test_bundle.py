"""Repro bundles: closed codec, deterministic bytes, replay contract."""

import json

import pytest

from repro.campaign import PolicySpec, RunSpec, program_fingerprint
from repro.core.program import Program, ThreadBuilder
from repro.faults import FaultPlan
from repro.memsys.config import BUS_CACHE, NET_CACHE, NET_CACHE_VC
from repro.models.policies import Def2Policy, SCPolicy
from repro.sanitizer import (
    BUNDLE_FORMAT,
    ReproBundle,
    spec_from_dict,
    spec_to_dict,
)

from tests.sanitizer.conftest import spin_deadlock_spec


def _every_instruction_program() -> Program:
    builder = ThreadBuilder("P0")
    builder.load("r0", "x")
    builder.store("x", 1)
    builder.sync_load("r1", "s")
    builder.sync_store("s", 2)
    builder.test_and_set("r2", "lock")
    builder.swap("r3", "lock", 0)
    builder.fetch_and_add("r4", "ctr", 1)
    builder.add("r5", "r4", 1)
    builder.mov("r6", 7)
    builder.nop()
    builder.fence()
    builder.label("top")
    builder.beq("r6", 7, "out")
    builder.jump("top")
    builder.label("out")
    builder.halt()
    return Program(
        [builder.build()], initial_memory={"x": 3, "ctr": 1}, name="all_ops"
    )


class TestSpecCodec:
    def test_round_trip_preserves_digest(self):
        spec = RunSpec(
            program=_every_instruction_program(),
            policy=PolicySpec.of(SCPolicy),
            config=BUS_CACHE,
            seed=17,
            max_cycles=44_000,
            faults=FaultPlan(delay_jitter=3, reorder_pct=5),
            sanitize="strict",
        )
        restored = spec_from_dict(spec_to_dict(spec))
        assert restored.digest() == spec.digest()
        assert program_fingerprint(restored.program) == (
            program_fingerprint(spec.program)
        )
        assert restored.config == spec.config
        assert restored.faults == spec.faults

    def test_schedule_round_trips(self):
        spec = spin_deadlock_spec(schedule=(0, 2, 1))
        restored = spec_from_dict(spec_to_dict(spec))
        assert restored.schedule == (0, 2, 1)
        assert restored.digest() == spec.digest()

    def test_trace_requests_are_dropped(self):
        from repro.trace.tracer import TraceSpec

        spec = spin_deadlock_spec(trace=TraceSpec())
        restored = spec_from_dict(spec_to_dict(spec))
        assert restored.trace is None

    @pytest.mark.parametrize(
        "config, schedule, keys",
        [
            (NET_CACHE, (0, 1), {"relaxed_request_channels": True}),
            (NET_CACHE, None, {"relaxed_request_channels": True}),
            (NET_CACHE, (0, 1), {"inval_virtual_channel": True}),
            (NET_CACHE, None, {"inval_virtual_channel": True}),
            # Explored before the channel followed the config, this
            # schedule indexed the shared-channel tree.
            (NET_CACHE_VC, (0, 1), {"inval_virtual_channel": False}),
        ],
    )
    def test_old_channel_keys_naming_another_machine_refused(
        self, config, schedule, keys
    ):
        data = spec_to_dict(
            spin_deadlock_spec(config=config, schedule=schedule)
        )
        data.update(
            {"relaxed_request_channels": False,
             "inval_virtual_channel": False, **keys}
        )
        with pytest.raises(ValueError, match="channel"):
            spec_from_dict(data)

    @pytest.mark.parametrize(
        "config, schedule, inval",
        [
            (NET_CACHE, (0, 1), False),
            (NET_CACHE_VC, None, False),
            (NET_CACHE_VC, (0, 1), True),
        ],
    )
    def test_old_channel_keys_matching_the_machine_replay(
        self, config, schedule, inval
    ):
        spec = spin_deadlock_spec(config=config, schedule=schedule)
        data = spec_to_dict(spec)
        data.update(
            {"relaxed_request_channels": False,
             "inval_virtual_channel": inval}
        )
        assert spec_from_dict(data).digest() == spec.digest()

    def test_unknown_instruction_op_rejected(self):
        data = spec_to_dict(spin_deadlock_spec())
        data["program"]["threads"][0]["instructions"][0] = {"op": "hcf"}
        with pytest.raises(ValueError, match="unknown instruction op"):
            spec_from_dict(data)


class TestBundleJson:
    def _bundle(self):
        return ReproBundle(
            spec=spin_deadlock_spec(),
            signature="sim-timeout",
            kind="sim-timeout",
            message="simulation watchdog tripped",
            label="unit",
            shrink_runs=6,
            original_instructions=11,
            minimized_instructions=1,
        )

    def test_serialisation_is_byte_stable(self):
        bundle = self._bundle()
        assert bundle.to_json() == bundle.to_json()
        assert bundle.to_json() == ReproBundle.from_json(
            bundle.to_json()
        ).to_json()

    def test_round_trip_preserves_fields(self):
        restored = ReproBundle.from_json(self._bundle().to_json())
        assert restored.signature == "sim-timeout"
        assert restored.kind == "sim-timeout"
        assert restored.label == "unit"
        assert restored.shrink_runs == 6
        assert restored.original_instructions == 11
        assert restored.minimized_instructions == 1
        assert restored.spec.digest() == spin_deadlock_spec().digest()

    def test_format_tag_is_checked(self):
        payload = json.loads(self._bundle().to_json())
        payload["format"] = "repro-bundle/v999"
        with pytest.raises(ValueError, match="unsupported bundle format"):
            ReproBundle.from_json(json.dumps(payload))
        assert payload["format"] != BUNDLE_FORMAT

    def test_replay_matches_recorded_signature(self):
        result, signature, ok = self._bundle().replay()
        assert ok
        assert signature == "sim-timeout"
        assert not result.completed

    def test_replay_detects_signature_mismatch(self):
        p0 = ThreadBuilder("P0")
        p0.store("x", 1)
        healthy = RunSpec(
            program=Program([p0.build()], name="healthy"),
            policy=PolicySpec.of(Def2Policy),
            config=NET_CACHE,
            seed=0,
            max_cycles=50_000,
        )
        bundle = ReproBundle(
            spec=healthy, signature="sim-timeout", kind="sim-timeout"
        )
        result, signature, ok = bundle.replay()
        assert not ok
        assert signature is None and result.completed
