"""repro — a reproduction of "Weak Ordering - A New Definition"
(Adve & Hill, ISCA 1988).

The paper re-defines weak ordering as a contract: hardware is weakly
ordered with respect to a synchronization model iff it appears
sequentially consistent to all software that obeys the model
(Definition 2), gives DRF0 as the example model (Definition 3), and
presents a counter/reserve-bit hardware implementation that the old
definition forbids (Section 5).

This package makes every piece of that story executable:

* :mod:`repro.core` — programs, memory operations, executions;
* :mod:`repro.sc` — the idealized architecture, exhaustive SC
  enumeration, the appears-SC verifier, Lemma 1;
* :mod:`repro.hb` / :mod:`repro.drf` — happens-before, DRF0/DRF0-R,
  race detection;
* :mod:`repro.sim` / :mod:`repro.interconnect` /
  :mod:`repro.coherence` / :mod:`repro.cpu` / :mod:`repro.memsys` —
  the hardware simulator (buses, networks, directory coherence,
  counters, reserve bits, write buffers);
* :mod:`repro.models` — the ordering policies (RELAXED, SC, TSO, PSO,
  DEF1, DEF2, DEF2-R, ...; see ``repro.models.policy_names()``);
* :mod:`repro.axiomatic` — the declarative side of each model:
  po/rf/co/fr relations and herd-style acyclicity axioms, plus the
  operational-vs-axiomatic cross-checker;
* :mod:`repro.litmus` / :mod:`repro.workloads` /
  :mod:`repro.analysis` — litmus campaigns, workload generators, and
  the Figure-3 / quantitative analyses;
* :mod:`repro.campaign` — the unified RunSpec -> RunResult pipeline:
  serial/parallel executors, on-disk result caching, and campaign
  metrics, shared by the runner, the conformance grid, the explorer,
  the sweeps, the CLI (``--jobs``), and the benchmarks;
* :mod:`repro.faults` — seeded fault injection (latency jitter,
  cross-channel reordering, duplicate delivery) for auditing the
  Definition-2 contract under adversarial message timings
  (``--faults`` on the CLI, ``RunSpec.faults`` in campaigns).

The supported entry point for all of it is :mod:`repro.api` — seven
keyword-only functions (:func:`~repro.api.run`,
:func:`~repro.api.explore`, :func:`~repro.api.verify_sc`,
:func:`~repro.api.check_drf0`, :func:`~repro.api.campaign`,
:func:`~repro.api.models`, :func:`~repro.api.crosscheck`).  Four are
re-exported here; ``explore``, ``campaign`` and ``models`` are reached
as ``repro.api.*``, because here those names are the subpackages.
Every ``policy=`` argument has a model-centric alias ``model=``.

Quickstart::

    import repro
    from repro import api, fig1_dekker

    print(repro.run(fig1_dekker(warm=True).program, "RELAXED").observable)
    report = api.explore(fig1_dekker(warm=True).program, "DEF2")
    print(report.describe())
"""

from repro.campaign import (
    ParallelExecutor,
    PolicySpec,
    ResultCache,
    RunFailure,
    RunResult,
    RunSpec,
    SerialExecutor,
    run_campaign,
)
from repro.faults import FaultPlan, parse_fault_plan
from repro.core import (
    Observable,
    OpKind,
    Program,
    Thread,
    ThreadBuilder,
)
from repro.delayset import DelayPolicy, delay_pairs, delay_policy_factory
from repro.drf import DRF0, DRF0_R, check_program, find_races, obeys_drf0
from repro.explore import explore_program, verify_weak_ordering
from repro.litmus import (
    LitmusRunner,
    LitmusTest,
    fig1_dekker,
    parse_litmus,
    standard_catalog,
)
from repro.memsys import (
    BUS_CACHE,
    BUS_CACHE_SNOOP,
    BUS_NOCACHE,
    FIGURE1_CONFIGS,
    MachineConfig,
    NET_CACHE,
    NET_CACHE_VC,
    NET_NOCACHE,
    System,
    run_program,
)
from repro.models import policy_by_name
from repro.models.policies import (
    Def1Policy,
    Def2Policy,
    Def2RPolicy,
    PSOPolicy,
    RP3FencePolicy,
    RelaxedPolicy,
    SCPolicy,
    TSOPolicy,
)
from repro.sc import SCVerifier, enumerate_executions, enumerate_results

# The stable facade.  Imported last: repro.api pulls in the modules
# above and must find the package already initialised.  The facade's
# ``explore``, ``campaign`` and ``models`` are not re-exported: those
# names are this package's subpackages, and binding the functions over
# them would break ``import repro.explore.oracle as o`` and the like.
from repro import api
from repro.api import check_drf0, crosscheck, run, verify_sc

__version__ = "1.2.0"

__all__ = [
    "api",
    "check_drf0",
    "crosscheck",
    "run",
    "verify_sc",
    "BUS_CACHE",
    "BUS_CACHE_SNOOP",
    "BUS_NOCACHE",
    "DRF0",
    "DRF0_R",
    "Def1Policy",
    "Def2Policy",
    "Def2RPolicy",
    "DelayPolicy",
    "FIGURE1_CONFIGS",
    "FaultPlan",
    "LitmusRunner",
    "LitmusTest",
    "MachineConfig",
    "NET_CACHE",
    "NET_CACHE_VC",
    "NET_NOCACHE",
    "Observable",
    "OpKind",
    "PSOPolicy",
    "Program",
    "RP3FencePolicy",
    "RelaxedPolicy",
    "SCPolicy",
    "SCVerifier",
    "TSOPolicy",
    "System",
    "Thread",
    "ThreadBuilder",
    "check_program",
    "delay_pairs",
    "delay_policy_factory",
    "enumerate_executions",
    "enumerate_results",
    "explore_program",
    "fig1_dekker",
    "find_races",
    "obeys_drf0",
    "parse_fault_plan",
    "parse_litmus",
    "policy_by_name",
    "run_program",
    "standard_catalog",
    "verify_weak_ordering",
]
