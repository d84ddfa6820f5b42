"""What the spec digest keys on: every field that can change a run, and
nothing about how the spec was spelled.

The journal and the result cache both key on :meth:`RunSpec.digest`,
and a journal's ``campaign`` header keys on :func:`campaign_digest` of
the batch.  A field left out of the digest would let a resume or a
cache hit serve another spec's result; a spelling that changed it would
re-run finished work.  ``test_spec.py`` pins golden digests; this
module checks the two directions field by field and policy by policy.
"""

import pickle

import pytest

from repro.campaign import PolicySpec, RunSpec, campaign_digest
from repro.faults import FaultPlan
from repro.litmus.catalog import fig1_dekker, message_passing_sync
from repro.memsys.config import NET_CACHE, NET_NOCACHE
from repro.models.base import registered_policies
from repro.models.policies import Def2Policy, RelaxedPolicy, SCPolicy, policy_by_name
from repro.trace.tracer import TraceSpec


def _spec(**kwargs):
    fields = dict(
        program=fig1_dekker().program,
        policy=PolicySpec.of(RelaxedPolicy),
        config=NET_NOCACHE,
        seed=0,
    )
    fields.update(kwargs)
    return RunSpec(**fields)


#: One single-field change from ``_spec()`` per case.
VARIANTS = {
    "program": dict(program=message_passing_sync().program),
    "policy-name": dict(policy=PolicySpec.of(SCPolicy)),
    "policy-params": dict(policy=PolicySpec.of(Def2Policy(nack_mode=False))),
    "core": dict(policy=PolicySpec.of(policy_by_name("RELAXED",
                                                     core="pipelined"))),
    "config": dict(config=NET_CACHE),
    "config-override": dict(config=NET_NOCACHE.with_overrides(start_skew=0)),
    "seed": dict(seed=1),
    "max-cycles": dict(max_cycles=999),
    "schedule": dict(schedule=(0,)),
    "empty-schedule": dict(schedule=()),
    "faults": dict(faults=FaultPlan(delay_jitter=3, reorder_pct=10, salt=2)),
    "trace": dict(trace=TraceSpec()),
    "sanitize-log": dict(sanitize="log"),
    "sanitize-strict": dict(sanitize="strict"),
}


class TestEveryFieldIsKeyed:
    @pytest.mark.parametrize("field", sorted(VARIANTS))
    def test_changing_the_field_changes_the_digest(self, field):
        assert _spec(**VARIANTS[field]).digest() != _spec().digest()

    def test_single_field_variants_are_pairwise_distinct(self):
        digests = [_spec(**VARIANTS[f]).digest() for f in sorted(VARIANTS)]
        assert len(set(digests)) == len(digests)

    @pytest.mark.parametrize("field", sorted(VARIANTS))
    def test_equal_content_built_twice_digests_equal(self, field):
        # Fresh objects on both sides: the digest hashes content, and
        # the memoised program fingerprint and config key are per
        # object, so neither may leak identity into the key.
        first = _spec(**VARIANTS[field])
        second = pickle.loads(pickle.dumps(_spec(**VARIANTS[field])))
        assert first.digest() == second.digest()


POLICIES = sorted(registered_policies())


class TestPolicySpellingsShareADigest:
    @pytest.mark.parametrize("name", POLICIES)
    def test_class_instance_factory_and_name_agree(self, name):
        cls = registered_policies()[name]
        spellings = [
            PolicySpec.of(cls),
            PolicySpec.of(cls()),
            PolicySpec.of(lambda: cls()),
            PolicySpec.of(policy_by_name(name)),
            PolicySpec.of(policy_by_name(name.lower().replace("-", "_"))),
            PolicySpec.of(policy_by_name(name, core="simple")),
        ]
        assert len(set(spellings)) == 1
        assert len({_spec(policy=p).digest() for p in spellings}) == 1
        assert spellings[0].build().name == name


class TestCampaignDigest:
    DIGESTS = [_spec(seed=seed).digest() for seed in range(4)]

    def test_order_sensitive(self):
        assert campaign_digest(self.DIGESTS) != campaign_digest(
            reversed(self.DIGESTS)
        )

    def test_boundaries_are_unambiguous(self):
        assert campaign_digest(["ab", "c"]) != campaign_digest(["a", "bc"])
        assert campaign_digest(["abc"]) != campaign_digest(["ab", "c"])

    def test_any_member_changes_it(self):
        base = campaign_digest(self.DIGESTS)
        for i in range(len(self.DIGESTS)):
            changed = list(self.DIGESTS)
            changed[i] = _spec(seed=100 + i).digest()
            assert campaign_digest(changed) != base

    def test_iterables_and_lists_agree(self):
        assert campaign_digest(iter(self.DIGESTS)) == campaign_digest(
            list(self.DIGESTS)
        )
        assert campaign_digest(d for d in self.DIGESTS) == campaign_digest(
            self.DIGESTS
        )
