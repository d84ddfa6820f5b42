"""Ordering policies: the models under test, looked up by name.

The canonical way to obtain a policy is the registry::

    from repro.models import policy_by_name
    policy = policy_by_name("TSO", core="pipelined")

The concrete classes live in :mod:`repro.models.policies`; each names
its ``axiomatic_model``, whose reordering table is its issue gate
unless the policy is a mechanism (the DEF2 family, DELAY-SET).

Registered policies (derived from the registry, so this list can never
go stale):

"""

from repro.models import policies as _policies  # populate the registry
from repro.models.base import (
    BlockKind,
    OrderingPolicy,
    policy_class_by_name,
    policy_names,
    registered_policies,
)
from repro.models.policies import policy_by_name


def _policy_table() -> str:
    """One docstring bullet per registered policy, from its summary."""
    return "\n".join(
        f"* ``{name}`` — {cls.summary}"
        for name, cls in sorted(registered_policies().items())
    )


__doc__ += _policy_table() + "\n"

__all__ = [
    "BlockKind",
    "OrderingPolicy",
    "policy_by_name",
    "policy_class_by_name",
    "policy_names",
    "registered_policies",
]
