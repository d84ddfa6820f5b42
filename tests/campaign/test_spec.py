"""Unit tests for RunSpec / RunResult / PolicySpec."""

import importlib
import pickle

import pytest

from repro.campaign.spec import PolicySpec, RunSpec, program_fingerprint
from repro.conformance import DEFAULT_CONFIGS, plan_conformance
from repro.core.instructions import Branch, Condition, Load
from repro.core.program import Program, Thread
from repro.faults import FaultPlan
from repro.litmus.catalog import fig1_dekker, message_passing_sync
from repro.memsys.config import BUS_NOCACHE, NET_CACHE, NET_NOCACHE, MachineConfig
from repro.models.base import OrderingPolicy
from repro.models.policies import (
    Def2Policy,
    Def2RPolicy,
    RelaxedPolicy,
    SCPolicy,
    policy_by_name,
)
from repro.trace.tracer import TraceSpec


class TestPolicySpec:
    def test_of_class(self):
        spec = PolicySpec.of(SCPolicy)
        assert spec.name == "SC"
        assert spec.params == ()

    def test_of_instance_and_factory(self):
        assert PolicySpec.of(SCPolicy()) == PolicySpec.of(lambda: SCPolicy())

    def test_of_spec_is_identity(self):
        spec = PolicySpec.of(SCPolicy)
        assert PolicySpec.of(spec) is spec

    def test_of_rejects_non_policy(self):
        with pytest.raises(TypeError):
            PolicySpec.of(lambda: 42)

    def test_build_reconstructs_constructor_state(self):
        spec = PolicySpec.of(Def2Policy(nack_mode=False, miss_bound_while_reserved=2))
        policy = spec.build()
        assert isinstance(policy, Def2Policy)
        assert policy.nack_mode is False
        assert policy.miss_bound_while_reserved == 2

    def test_build_distinguishes_subclasses(self):
        assert isinstance(PolicySpec.of(Def2RPolicy).build(), Def2RPolicy)

    def test_roundtrips_through_pickle(self):
        spec = PolicySpec.of(Def2Policy(nack_mode=False))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.build().nack_mode is False

    def test_ad_hoc_subclass_does_not_shadow_registry(self):
        class Probe(Def2Policy):  # no `name` of its own
            pass

        assert not isinstance(PolicySpec.of(Def2Policy).build(), Probe)


def _spec(seed=1, **kwargs):
    defaults = dict(
        program=fig1_dekker().program,
        policy=PolicySpec.of(RelaxedPolicy),
        config=NET_NOCACHE,
        seed=seed,
    )
    defaults.update(kwargs)
    return RunSpec(**defaults)


class TestRunSpec:
    def test_execute_produces_result(self):
        result = _spec().execute()
        assert result.completed
        assert result.observable is not None
        assert result.cycles > 0
        assert result.timings.messages > 0

    def test_execute_is_deterministic(self):
        a, b = _spec(seed=5).execute(), _spec(seed=5).execute()
        assert pickle.dumps(a) == pickle.dumps(b)

    def test_spec_is_picklable(self):
        spec = _spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.execute().observable == spec.execute().observable

    def test_digest_stable(self):
        assert _spec().digest() == _spec().digest()

    def test_digest_varies_with_seed_policy_config(self):
        base = _spec()
        assert base.digest() != _spec(seed=2).digest()
        assert base.digest() != _spec(policy=PolicySpec.of(SCPolicy)).digest()
        assert (
            _spec(
                program=message_passing_sync().program,
                policy=PolicySpec.of(Def2Policy),
                config=NET_CACHE,
            ).digest()
            != base.digest()
        )

    def test_schedule_run_reports_choice_log(self):
        result = _spec(
            config=NET_CACHE.with_overrides(start_skew=0),
            policy=PolicySpec.of(SCPolicy),
            schedule=(),
            max_cycles=200_000,
        ).execute()
        assert result.completed
        assert result.choice_log is not None
        assert len(result.choice_log) > 0


class TestProgramFingerprint:
    def test_same_content_same_fingerprint(self):
        assert program_fingerprint(fig1_dekker().program) == program_fingerprint(
            fig1_dekker().program
        )

    def test_different_content_different_fingerprint(self):
        assert program_fingerprint(fig1_dekker().program) != program_fingerprint(
            message_passing_sync().program
        )


# ----------------------------------------------------------------------
# The identity contract: a spec's digest is the key of every journal
# and result cache ever written, so its bytes may never move.  Each
# content identity is computed once per (immutable) object.
# ----------------------------------------------------------------------
spec_module = importlib.import_module("repro.campaign.spec")
runner_module = importlib.import_module("repro.litmus.runner")

_WARM = fig1_dekker(warm=True)
_GOLDEN_BASE = dict(
    program=_WARM.executable_program(),
    policy=PolicySpec.of(Def2Policy),
    config=NET_CACHE,
    seed=12345,
)

#: Digests as written by every earlier version of the campaign layer.
GOLDEN_DIGESTS = {
    "default": (
        {},
        "37c6ed733a4487dfb3bdf6b688e7dae882136c9e4566281c460a7cba4f79879f",
    ),
    "schedule": (
        {"schedule": (0, 1, 0, 2)},
        "891da2c48ecec710243b32a7aa752b4e0d9bf47ca2c71b3ab2606d7985e3ebbd",
    ),
    "faults": (
        {
            "config": BUS_NOCACHE,
            "faults": FaultPlan(delay_jitter=3, reorder_pct=10, salt=2),
        },
        "94f3caf2f3dab943177cacdc0b5ffc8ec184a9b808ba31dea8382fe4dab91bbd",
    ),
    "trace": (
        {"trace": TraceSpec(categories=("msg",), ring=64)},
        "54359877a9ab6316875d4bd84f0bf6fca61caa8d3aa4b7dc7e8603ba4df5b5f7",
    ),
    "sanitize": (
        {"sanitize": "strict"},
        "93fddd7deea1c2a8c1df55c6ccf1340ac702dcaae5fc6242686fd0f95f2bccba",
    ),
    "pipelined": (
        {"policy": PolicySpec.of(policy_by_name("DEF1", core="pipelined"))},
        "9269df2e1394f3e62653ea0aec6a529bf3211633ff255bc51cc0f07441e3bbf2",
    ),
}


class TestIdentityGolden:
    def test_plain_program_fingerprint(self):
        assert program_fingerprint(message_passing_sync().program) == (
            "baf3ef70e1a966ac07d31d5d66e79b360afc8d61f3e6b897e7315a6414b5f589"
        )

    def test_warmed_program_fingerprint(self):
        assert program_fingerprint(_WARM.executable_program()) == (
            "ef6960b56fbea94cf7bf0158896e91a13948238dc31d3989e82879d1f3882b89"
        )

    @pytest.mark.parametrize("case", sorted(GOLDEN_DIGESTS))
    def test_spec_digest(self, case):
        overrides, expected = GOLDEN_DIGESTS[case]
        spec = RunSpec(**dict(_GOLDEN_BASE, **overrides))
        assert spec.digest() == expected
        # A second spec over the same (now memoised) program and config
        # hashes the same bytes.
        assert RunSpec(**dict(_GOLDEN_BASE, **overrides)).digest() == expected


class TestIdentityComputedOncePerObject:
    def test_plan_fingerprints_each_program_object_once(self, monkeypatch):
        seen = []
        body = spec_module._fingerprint

        def spy(program):
            seen.append(program)  # holds the object, so ids stay unique
            return body(program)

        monkeypatch.setattr(spec_module, "_fingerprint", spy)
        plan = plan_conformance(runs_per_test=2)
        for spec in plan.specs:
            spec.digest()
        ids = [id(p) for p in seen]
        assert len(ids) == len(set(ids))
        programs = {id(s.program) for s in plan.specs} | {
            id(test.program) for test in plan.tests
        }
        assert set(ids) <= programs
        # The standard catalog: 21 tests, 8 of them warmed, so 29
        # fingerprints for 1,596 specs.
        assert (len(seen), len(plan.specs)) == (29, 1596)

    def test_plan_reprs_each_config_object_once(self, monkeypatch):
        seen = []
        original = MachineConfig.__repr__

        def spy(config):
            seen.append(config)
            return original(config)

        monkeypatch.setattr(MachineConfig, "__repr__", spy)
        configs = [c.with_overrides() for c in DEFAULT_CONFIGS]
        plan = plan_conformance(configs=configs, runs_per_test=2)
        for spec in plan.specs:
            spec.digest()
        assert sorted(id(c) for c in seen) == sorted(id(c) for c in configs)

    def test_plan_derives_its_seeds_once(self, monkeypatch):
        calls = []
        stream = runner_module.seed_stream

        def spy(base_seed, count):
            calls.append((base_seed, count))
            return stream(base_seed, count)

        monkeypatch.setattr(runner_module, "seed_stream", spy)
        plan = plan_conformance(runs_per_test=2, base_seed=7)
        assert calls == [(7, 2)]
        assert [s.seed for s in plan.specs[:2]] == list(stream(7, 2))


class TestIdentityAcrossProcesses:
    def test_pickled_after_digest_digests_identically(self):
        spec = RunSpec(**_GOLDEN_BASE)
        digest = spec.digest()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.digest() == digest
        assert program_fingerprint(clone.program) == spec_module._fingerprint(
            clone.program
        )
        # ... and so does a fresh copy that never saw a memo.
        fresh = RunSpec(**dict(_GOLDEN_BASE, program=_WARM.executable_program()))
        assert fresh.digest() == digest


class TestProgramImmutable:
    def test_caller_edits_cannot_reach_a_fingerprinted_program(self):
        instructions = [Branch(Condition.NE, "r1", 0, "spin"), Load("r2", "x")]
        labels = {"spin": 0}
        program = Program([Thread("P0", instructions, labels)], name="spin")
        before = program_fingerprint(program)

        instructions.append(Load("r3", "y"))
        labels["spin"] = 2
        labels["done"] = 1

        thread = program.threads[0]
        assert thread.instructions == (
            Branch(Condition.NE, "r1", 0, "spin"),
            Load("r2", "x"),
        )
        assert thread.labels == {"spin": 0}
        assert program_fingerprint(program) == before
        assert spec_module._fingerprint(program) == before
