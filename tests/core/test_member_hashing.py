"""``OpKind``, ``StallReason`` and ``BlockKind`` hash by identity.

Members are singletons that compare by identity, so the simulator's hot
dicts (stall windows keyed by ``(proc, reason)``, per-kind issue plans,
block tables) hash them in C.  The hash value itself differs from one
process to the next, so nothing may depend on it: members must pickle
back to the very member, lookups by member must work, and no digest or
fingerprint may hash one.
"""

from __future__ import annotations

import pickle

import pytest

from repro.campaign import PolicySpec, RunSpec
from repro.campaign.journal import campaign_digest
from repro.campaign.spec import program_fingerprint
from repro.conformance import DEFAULT_CONFIGS
from repro.core.operation import OpKind
from repro.cpu.core import core_names
from repro.faults import FaultPlan
from repro.litmus.catalog import standard_catalog
from repro.models.base import BlockKind, policy_names
from repro.models.policies import policy_by_name
from repro.sim.stats import StallReason
from repro.trace.tracer import TraceSpec

ENUMS = (OpKind, StallReason, BlockKind)


@pytest.mark.parametrize("enum", ENUMS, ids=lambda e: e.__name__)
class TestIdentityHashing:
    def test_hash_is_identity(self, enum):
        for member in enum:
            assert hash(member) == object.__hash__(member)

    def test_members_pickle_back_to_the_very_member(self, enum):
        for member in enum:
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(member, protocol)) is member

    def test_dict_and_set_lookups_by_member(self, enum):
        members = list(enum)
        table = {member: member.value for member in members}
        keyed = {(proc, member): proc for proc in range(3) for member in members}
        assert all(table[member] == member.value for member in members)
        assert all(
            keyed[(proc, member)] == proc
            for proc in range(3) for member in members
        )
        assert set(members) == set(enum) and len(set(members)) == len(members)
        assert all(member in frozenset(members) for member in members)
        # A round-tripped member finds the entries of the original.
        for member in members:
            assert table[pickle.loads(pickle.dumps(member))] == member.value


@pytest.fixture
def unhashable_members(monkeypatch):
    """Make hashing any member raise for the test's duration."""

    def refuse(member):
        raise AssertionError(f"{member!r} was hashed")

    for enum in ENUMS:
        monkeypatch.setattr(enum, "__hash__", refuse)


def _specs():
    plan = FaultPlan(delay_jitter=3, reorder_pct=10)
    for program in (test.executable_program() for test in standard_catalog()):
        for config in DEFAULT_CONFIGS:
            for name in policy_names():
                for core in core_names():
                    policy = PolicySpec.of(
                        lambda name=name, core=core: policy_by_name(
                            name, core=core
                        )
                    )
                    yield RunSpec(program, policy, config, seed=7)
        yield RunSpec(
            program, PolicySpec.of(lambda: policy_by_name("DEF2")),
            DEFAULT_CONFIGS[3], seed=7, schedule=(0, 1), faults=plan,
            trace=TraceSpec(events=True, summary=True), sanitize="strict",
        )


def test_no_digest_or_fingerprint_hashes_a_member(unhashable_members):
    fingerprints = [
        program_fingerprint(test.executable_program())
        for test in standard_catalog()
    ]
    digests = [spec.digest() for spec in _specs()]
    assert len(set(fingerprints)) == len(fingerprints)
    assert campaign_digest(digests)
