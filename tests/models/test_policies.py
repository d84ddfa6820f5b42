"""Unit tests for the ordering policies' gate and protocol decisions."""

import pytest

from repro.core.operation import OpKind
from repro.cpu.access import MemoryAccess
from repro.models.base import BlockKind
from repro.models.base import policy_names
from repro.models.policies import (
    Def1Policy,
    Def2Policy,
    Def2RPolicy,
    PSOPolicy,
    RelaxedPolicy,
    SCPolicy,
    TSOPolicy,
    policy_by_name,
)
from repro.sim.stats import StallReason


class FakeCache:
    def __init__(self, over_capacity=False, reserved=False):
        self._over = over_capacity
        self._reserved = reserved

    @property
    def over_capacity(self):
        return self._over

    def any_reserved(self):
        return self._reserved


class FakeProc:
    def __init__(self, pending=(), cache=None):
        self.pending_accesses = list(pending)
        self.cache = cache
        # Without a cache the port is the FIFO write buffer.
        self.in_order_stores = cache is None


def access(kind, committed=False, gp=False):
    a = MemoryAccess(proc=0, kind=kind, location="x")
    if committed or gp:
        a.mark_committed(0)
    if gp:
        a.mark_globally_performed(0)
    return a


class TestRelaxed:
    def test_never_gates(self):
        policy = RelaxedPolicy()
        proc = FakeProc(pending=[access(OpKind.WRITE)])
        for kind in OpKind:
            assert policy.issue_gate(proc, kind) is None

    def test_block_none(self):
        assert RelaxedPolicy().block_kind(OpKind.WRITE) is BlockKind.NONE


class TestSC:
    def test_gates_on_any_pending(self):
        policy = SCPolicy()
        proc = FakeProc(pending=[access(OpKind.READ)])
        assert policy.issue_gate(proc, OpKind.WRITE) is StallReason.SC_PREVIOUS_GP

    def test_clear_when_no_pending(self):
        assert SCPolicy().issue_gate(FakeProc(), OpKind.WRITE) is None


class TestDef1:
    def test_condition2_sync_waits_for_previous(self):
        policy = Def1Policy()
        proc = FakeProc(pending=[access(OpKind.WRITE)])
        assert (
            policy.issue_gate(proc, OpKind.SYNC_WRITE)
            is StallReason.DEF1_SYNC_WAITS_PREV
        )

    def test_condition3_everything_waits_for_sync_gp(self):
        policy = Def1Policy()
        proc = FakeProc(pending=[access(OpKind.SYNC_WRITE, committed=True)])
        assert (
            policy.issue_gate(proc, OpKind.READ) is StallReason.DEF1_WAITS_SYNC_GP
        )

    def test_data_overlaps_data(self):
        policy = Def1Policy()
        proc = FakeProc(pending=[access(OpKind.WRITE)])
        assert policy.issue_gate(proc, OpKind.READ) is None

    def test_clear_after_gp(self):
        assert Def1Policy().issue_gate(FakeProc(), OpKind.SYNC_WRITE) is None


class TestDef2:
    def test_condition4_waits_for_sync_commit_only(self):
        policy = Def2Policy()
        uncommitted_sync = access(OpKind.SYNC_WRITE)
        proc = FakeProc(pending=[uncommitted_sync], cache=FakeCache())
        assert (
            policy.issue_gate(proc, OpKind.READ) is StallReason.DEF2_SYNC_COMMIT
        )

    def test_committed_sync_releases_the_gate(self):
        """The whole point: commit suffices, global perform does not gate."""
        policy = Def2Policy()
        committed_sync = access(OpKind.SYNC_WRITE, committed=True)
        proc = FakeProc(pending=[committed_sync], cache=FakeCache())
        assert policy.issue_gate(proc, OpKind.READ) is None

    def test_data_never_gates_data(self):
        policy = Def2Policy()
        proc = FakeProc(pending=[access(OpKind.WRITE)], cache=FakeCache())
        assert policy.issue_gate(proc, OpKind.WRITE) is None

    def test_flush_stall_when_over_capacity(self):
        policy = Def2Policy()
        proc = FakeProc(cache=FakeCache(over_capacity=True))
        assert (
            policy.issue_gate(proc, OpKind.READ)
            is StallReason.DEF2_FLUSH_RESERVED
        )

    def test_miss_bound_while_reserved(self):
        policy = Def2Policy(miss_bound_while_reserved=1)
        proc = FakeProc(
            pending=[access(OpKind.WRITE)], cache=FakeCache(reserved=True)
        )
        assert policy.issue_gate(proc, OpKind.READ) is StallReason.DEF2_MISS_BOUND
        unreserved = FakeProc(pending=[access(OpKind.WRITE)], cache=FakeCache())
        assert policy.issue_gate(unreserved, OpKind.READ) is None

    def test_sync_blocks_to_commit(self):
        policy = Def2Policy()
        assert policy.block_kind(OpKind.SYNC_WRITE) is BlockKind.COMMIT
        assert policy.block_kind(OpKind.SYNC_RMW) is BlockKind.COMMIT
        assert policy.block_kind(OpKind.WRITE) is BlockKind.NONE

    def test_sync_reads_treated_as_writes(self):
        policy = Def2Policy()
        assert policy.needs_exclusive(OpKind.SYNC_READ)
        assert policy.sync_protocol(OpKind.SYNC_READ)

    def test_requires_cache(self):
        assert Def2Policy.requires_cache


class TestDef2R:
    def test_sync_read_is_protocol_data(self):
        policy = Def2RPolicy()
        assert not policy.needs_exclusive(OpKind.SYNC_READ)
        assert not policy.sync_protocol(OpKind.SYNC_READ)

    def test_writing_syncs_unchanged(self):
        policy = Def2RPolicy()
        assert policy.needs_exclusive(OpKind.SYNC_WRITE)
        assert policy.sync_protocol(OpKind.SYNC_RMW)


class TestTSO:
    def test_loads_pass_buffered_stores(self):
        """The one TSO relaxation: a read overtakes pending writes."""
        policy = TSOPolicy()
        proc = FakeProc(pending=[access(OpKind.WRITE)])
        assert policy.issue_gate(proc, OpKind.READ) is None

    def test_load_load_order_kept(self):
        policy = TSOPolicy()
        proc = FakeProc(pending=[access(OpKind.READ)])
        assert (
            policy.issue_gate(proc, OpKind.READ)
            is StallReason.TSO_LOAD_ORDER
        )

    def test_stores_never_pass_loads(self):
        policy = TSOPolicy()
        proc = FakeProc(pending=[access(OpKind.READ)])
        assert (
            policy.issue_gate(proc, OpKind.WRITE)
            is StallReason.TSO_STORE_ORDER
        )

    def test_store_store_serialized_only_on_cached_machines(self):
        policy = TSOPolicy()
        buffered = FakeProc(pending=[access(OpKind.WRITE)])
        assert policy.issue_gate(buffered, OpKind.WRITE) is None
        cached = FakeProc(pending=[access(OpKind.WRITE)], cache=FakeCache())
        assert (
            policy.issue_gate(cached, OpKind.WRITE)
            is StallReason.TSO_STORE_ORDER
        )

    def test_atomics_are_full_fences(self):
        policy = TSOPolicy()
        proc = FakeProc(pending=[access(OpKind.WRITE)])
        assert (
            policy.issue_gate(proc, OpKind.SYNC_RMW)
            is StallReason.TSO_ATOMIC_FENCE
        )
        pending_sync = FakeProc(pending=[access(OpKind.SYNC_WRITE)])
        assert (
            policy.issue_gate(pending_sync, OpKind.READ)
            is StallReason.TSO_ATOMIC_FENCE
        )

    def test_clear_when_nothing_pending(self):
        policy = TSOPolicy()
        for kind in OpKind:
            assert policy.issue_gate(FakeProc(), kind) is None

    def test_forwarding_allowed(self):
        assert TSOPolicy.allows_store_forwarding


class TestPSO:
    def test_store_store_relaxed_even_with_caches(self):
        policy = PSOPolicy()
        cached = FakeProc(pending=[access(OpKind.WRITE)], cache=FakeCache())
        assert policy.issue_gate(cached, OpKind.WRITE) is None

    def test_load_ordering_stays_tso(self):
        policy = PSOPolicy()
        proc = FakeProc(pending=[access(OpKind.READ)])
        assert (
            policy.issue_gate(proc, OpKind.READ)
            is StallReason.TSO_LOAD_ORDER
        )
        assert (
            policy.issue_gate(proc, OpKind.WRITE)
            is StallReason.TSO_STORE_ORDER
        )

    def test_atomics_still_fence(self):
        policy = PSOPolicy()
        proc = FakeProc(pending=[access(OpKind.WRITE)], cache=FakeCache())
        assert (
            policy.issue_gate(proc, OpKind.SYNC_WRITE)
            is StallReason.TSO_ATOMIC_FENCE
        )


class TestProtocolTreatment:
    def test_data_ops_never_sync_protocol(self):
        for policy in (RelaxedPolicy(), SCPolicy(), Def1Policy(), Def2Policy()):
            assert not policy.sync_protocol(OpKind.READ)
            assert not policy.sync_protocol(OpKind.WRITE)

    def test_writes_always_need_exclusive(self):
        for policy in (RelaxedPolicy(), SCPolicy(), Def1Policy(), Def2Policy()):
            assert policy.needs_exclusive(OpKind.WRITE)
            assert policy.needs_exclusive(OpKind.SYNC_RMW)

    def test_plain_reads_never_need_exclusive(self):
        for policy in (RelaxedPolicy(), SCPolicy(), Def1Policy(), Def2Policy()):
            assert not policy.needs_exclusive(OpKind.READ)


class TestPolicyByName:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("RELAXED", RelaxedPolicy),
            ("sc", SCPolicy),
            ("def1", Def1Policy),
            ("DEF2", Def2Policy),
            ("def2-r", Def2RPolicy),
            ("DEF2_R", Def2RPolicy),
            ("tso", TSOPolicy),
            ("PSO", PSOPolicy),
        ],
    )
    def test_lookup(self, name, cls):
        assert isinstance(policy_by_name(name), cls)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            policy_by_name("release-consistency")

    def test_program_specific_policies_not_name_constructible(self):
        from repro.delayset.policy import DelayPolicy  # registers it

        assert DelayPolicy.name not in policy_names()
        with pytest.raises(ValueError):
            policy_by_name(DelayPolicy.name)

    def test_registry_drives_the_lookup(self):
        for name in policy_names():
            assert policy_by_name(name).name == name
