"""The derived issue gates against their models' reordering tables.

Every policy without a mechanism of its own gates issue with the table
of the axiomatic model it names.  Exhaustively, over both port kinds:

* for each ``(earlier, later)`` kind pair, the gate stalls the later
  access behind a pending earlier one iff ppo keeps the unfenced pair,
  except for a port-enforced entry on a port that drains stores in
  order;
* for every pending multiset of up to three kinds and every later kind,
  the gate returns the reason of the first entry some pending access
  matches.
"""

import itertools

import pytest

from repro.axiomatic.model import (
    AXIOMATIC_MODELS,
    model_by_name,
    model_for_policy,
)
from repro.axiomatic.relations import Relations
from repro.core.operation import MemoryOp, OpKind
from repro.models.base import OrderingPolicy, registered_policies
from repro.models.policies import policy_by_name

from tests.models.test_policies import FakeCache, FakeProc, access

DERIVED = sorted(
    name
    for name, cls in registered_policies().items()
    if cls.issue_gate is OrderingPolicy.issue_gate
)
PORTS = {"reordering": False, "in-order stores": True}


def proc_with(pending, in_order_stores):
    """A processor whose port is a write buffer or a cache."""
    return FakeProc(
        pending=[access(kind) for kind in pending],
        cache=None if in_order_stores else FakeCache(),
    )


def first_rule(order, earlier: OpKind, later: OpKind):
    return next(
        (r for r in order if earlier in r.earlier and later in r.later), None
    )


def ppo_keeps(model, earlier: OpKind, later: OpKind) -> bool:
    a = MemoryOp(proc=0, kind=earlier, location="x", thread_pos=0)
    b = MemoryOp(proc=0, kind=later, location="y", thread_pos=1)
    relations = Relations(
        ops=(a, b), po=frozenset({(a, b)}), fenced=frozenset(), rf={}, co={}
    )
    return (a, b) in model.ppo(relations)


def test_the_mechanism_policies_keep_their_own_gates():
    assert DERIVED == ["DEF1", "PSO", "RELAXED", "RP3-FENCE", "SC", "TSO"]


@pytest.mark.parametrize("port", sorted(PORTS))
@pytest.mark.parametrize("name", DERIVED)
def test_gate_stalls_iff_ppo_keeps_the_pair(name, port):
    policy = policy_by_name(name)
    model = model_for_policy(name)
    in_order = PORTS[port]
    for earlier, later in itertools.product(OpKind, OpKind):
        rule = first_rule(model.order, earlier, later)
        stalls = policy.issue_gate(proc_with([earlier], in_order), later)
        assert (rule is not None) == ppo_keeps(model, earlier, later)
        if rule is not None and rule.port_enforced and in_order:
            assert stalls is None, (name, earlier, later)
        else:
            assert (stalls is not None) == (rule is not None), (
                name, port, earlier, later,
            )


@pytest.mark.parametrize("port", sorted(PORTS))
@pytest.mark.parametrize("name", DERIVED)
def test_gate_reports_the_first_matching_entry(name, port):
    policy = policy_by_name(name)
    in_order = PORTS[port]
    order = [
        rule
        for rule in model_by_name(policy.axiomatic_model).order
        if not (in_order and rule.port_enforced)
    ]
    for size in range(4):
        for pending in itertools.combinations_with_replacement(OpKind, size):
            for later in OpKind:
                expected = next(
                    (
                        rule.reason
                        for rule in order
                        if later in rule.later
                        and any(k in rule.earlier for k in pending)
                    ),
                    None,
                )
                got = policy.issue_gate(proc_with(pending, in_order), later)
                assert got is expected, (name, port, pending, later)


def test_only_tso_store_store_order_is_port_enforced():
    writes = frozenset(k for k in OpKind if k.writes_memory)
    enforced = [
        (model.name, rule.earlier, rule.later)
        for model in AXIOMATIC_MODELS.values()
        for rule in model.order
        if rule.port_enforced
    ]
    assert enforced == [("TSO", writes, writes)]
