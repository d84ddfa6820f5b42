"""Snapshot of the public ``repro.api`` surface.

The facade is the stability contract of the package: its names and
call signatures may only change together with this snapshot, so any
accidental rename, parameter reorder, or keyword-only regression fails
loudly here before it reaches a consumer.

Every entry point has exactly one calling form: options after the
leading positionals are keyword-only, and the retired positional forms
and class aliases fail loudly rather than being translated.
"""

import importlib
import inspect
import warnings

import pytest

import repro
import repro.api as api
from repro.analysis.comparison import compare_policies, sweep
from repro.core.program import Program, ThreadBuilder
from repro.litmus.catalog import fig1_dekker, fig1_dekker_all_sync
from repro.litmus.runner import LitmusRunner
from repro.memsys.config import NET_NOCACHE
from repro.models.policies import RelaxedPolicy
from repro.sc.verifier import SCVerifier


def _shape(fn):
    """A stable fingerprint of a signature: (name, kind, has-default)."""
    return tuple(
        (p.name, p.kind.name, p.default is not inspect.Parameter.empty)
        for p in inspect.signature(fn).parameters.values()
    )


#: The frozen facade signatures.  A change here is an API break (or an
#: intentional extension): update the snapshot in the same commit and
#: say so in the changelog.
FACADE_SHAPES = {
    "run": (
        ("program", "POSITIONAL_OR_KEYWORD", False),
        ("policy", "POSITIONAL_OR_KEYWORD", True),
        ("model", "KEYWORD_ONLY", True),
        ("machine", "KEYWORD_ONLY", True),
        ("core", "KEYWORD_ONLY", True),
        ("seed", "KEYWORD_ONLY", True),
        ("max_cycles", "KEYWORD_ONLY", True),
        ("faults", "KEYWORD_ONLY", True),
        ("trace", "KEYWORD_ONLY", True),
        ("sanitize", "KEYWORD_ONLY", True),
    ),
    "explore": (
        ("program", "POSITIONAL_OR_KEYWORD", False),
        ("policy", "POSITIONAL_OR_KEYWORD", True),
        ("model", "KEYWORD_ONLY", True),
        ("max_delays", "KEYWORD_ONLY", True),
        ("prune", "KEYWORD_ONLY", True),
        ("machine", "KEYWORD_ONLY", True),
        ("core", "KEYWORD_ONLY", True),
        ("max_runs", "KEYWORD_ONLY", True),
        ("max_cycles", "KEYWORD_ONLY", True),
        ("trace", "KEYWORD_ONLY", True),
        ("sanitize", "KEYWORD_ONLY", True),
        ("journal", "KEYWORD_ONLY", True),
        ("resume", "KEYWORD_ONLY", True),
        ("progress", "KEYWORD_ONLY", True),
    ),
    "verify_sc": (
        ("program", "POSITIONAL_OR_KEYWORD", False),
        ("outcomes", "POSITIONAL_OR_KEYWORD", True),
        ("model", "KEYWORD_ONLY", True),
        ("max_states", "KEYWORD_ONLY", True),
        ("prune", "KEYWORD_ONLY", True),
        ("max_candidates", "KEYWORD_ONLY", True),
    ),
    "check_drf0": (
        ("program", "POSITIONAL_OR_KEYWORD", False),
        ("model", "KEYWORD_ONLY", True),
        ("max_executions", "KEYWORD_ONLY", True),
        ("prune", "KEYWORD_ONLY", True),
    ),
    "campaign": (
        ("specs", "POSITIONAL_OR_KEYWORD", False),
        ("executor", "KEYWORD_ONLY", True),
        ("cache", "KEYWORD_ONLY", True),
        ("label", "KEYWORD_ONLY", True),
        ("triage", "KEYWORD_ONLY", True),
        ("journal", "KEYWORD_ONLY", True),
        ("progress", "KEYWORD_ONLY", True),
    ),
    "models": (),
    "crosscheck": (
        ("tests", "KEYWORD_ONLY", True),
        ("policies", "KEYWORD_ONLY", True),
        ("configs", "KEYWORD_ONLY", True),
        ("runs_per_test", "KEYWORD_ONLY", True),
        ("base_seed", "KEYWORD_ONLY", True),
        ("max_cycles", "KEYWORD_ONLY", True),
        ("executor", "KEYWORD_ONLY", True),
        ("cache", "KEYWORD_ONLY", True),
        ("max_candidates", "KEYWORD_ONLY", True),
        ("progress", "KEYWORD_ONLY", True),
    ),
}

#: Positional parameters of the lower-level entry points; everything
#: after them is keyword-only, with no ``*args`` catch-all.
ENTRY_POINT_POSITIONALS = {
    "SCVerifier": (SCVerifier.__init__, ("self",)),
    "LitmusRunner.run": (
        LitmusRunner.run, ("self", "test", "policy_factory", "config"),
    ),
    "explore_program": (api.explore_program, ("program", "policy_factory")),
    "run_campaign": (api.run_campaign, ("specs",)),
    "run_conformance": (api.run_conformance, ()),
    "plan_conformance": (api.plan_conformance, ()),
    "crosscheck_models": (api.crosscheck_models, ()),
    "figure3_sweep": (api.figure3_sweep, ()),
    "compare_policies": (
        compare_policies, ("program_factory", "policies"),
    ),
    "sweep": (
        sweep, ("parameter_values", "program_for", "config_for", "policies"),
    ),
}

#: Every name ``repro.api`` exports.  Additions are fine but deliberate:
#: extend the snapshot in the same commit.
EXPORTED_NAMES = frozenset(
    {
        "run", "explore", "verify_sc", "check_drf0", "campaign",
        "models", "crosscheck",
        "Observable", "Program", "Thread", "ThreadBuilder",
        "CampaignJournal", "CampaignMetrics", "CampaignResult",
        "EXIT_PREEMPTED",
        "Executor", "JournalError", "ParallelExecutor", "PolicySpec",
        "PreemptionToken", "ResultCache", "RunFailure",
        "RunResult", "RunSpec", "SerialExecutor", "current_token",
        "default_executor", "emit_metrics", "graceful_preemption",
        "open_journal", "preempted_result",
        "program_fingerprint", "register_metrics_hook",
        "run_campaign", "unregister_metrics_hook",
        "BUS_CACHE", "BUS_CACHE_SNOOP", "BUS_NOCACHE", "FIGURE1_CONFIGS",
        "MachineConfig", "NET_CACHE", "NET_CACHE_VC", "NET_NOCACHE",
        "System", "config_by_name", "machine_names",
        "Def1Policy", "Def2Policy", "Def2RPolicy", "PSOPolicy",
        "RelaxedPolicy", "SCPolicy", "TSOPolicy", "core_names",
        "policy_by_name", "policy_names", "registered_policies",
        "AxiomaticModel", "CrosscheckCell", "CrosscheckReport",
        "DEFAULT_MAX_CANDIDATES",
        "allowed_outcomes", "axiomatic_model_names", "crosscheck_models",
        "is_straightline", "model_by_name", "model_for_policy",
        "LitmusResult", "LitmusRunner", "LitmusTest", "catalog_by_name",
        "fig1_dekker", "fig1_dekker_all_sync", "forwarding_catalog",
        "load_test",
        "parse_litmus", "standard_catalog",
        "ConformancePlan", "ConformanceReport", "judge_conformance",
        "plan_conformance", "run_conformance", "VERDICT_BROKEN",
        "VERDICT_NA", "VERDICT_SC", "VERDICT_WEAK",
        "DRF0", "DRF0_R", "DRFReport", "ExplorationReport", "SCVerifier",
        "SCViolation", "SearchStats", "SynchronizationModel",
        "check_program", "enumerate_executions", "enumerate_results",
        "explore_program", "explore_to_fixpoint", "obeys_drf0",
        "verify_weak_ordering",
        "delay_pairs", "describe_delay_set", "minimal_delay_pairs",
        "static_footprints",
        "FaultPlan", "parse_fault_plan", "FORMATS", "TraceEvent",
        "TraceSpec", "crosscheck_run", "format_timeline", "write_trace",
        "ReproBundle", "TriageConfig", "random_drf0_program",
        "random_mixed_sync_program", "random_racy_program",
        "random_spin_program",
        "figure3_sweep", "format_table", "configure_cli_logging",
        "get_logger",
        "METRICS", "MetricsRegistry", "Snapshot", "ProgressReporter",
        "FlightRecorder", "enable_metrics", "disable_metrics",
        "load_snapshot", "to_prometheus",
        "write_prometheus",
    }
)


class TestApiSurface:
    @pytest.mark.parametrize("name", sorted(FACADE_SHAPES))
    def test_facade_signature_matches_snapshot(self, name):
        assert _shape(getattr(api, name)) == FACADE_SHAPES[name]

    @pytest.mark.parametrize("name", sorted(ENTRY_POINT_POSITIONALS))
    def test_entry_point_positionals_match_snapshot(self, name):
        fn, expected = ENTRY_POINT_POSITIONALS[name]
        shape = _shape(fn)
        assert {kind for _, kind, _ in shape} <= {
            "POSITIONAL_OR_KEYWORD", "KEYWORD_ONLY",
        }
        positional = tuple(
            n for n, kind, _ in shape if kind == "POSITIONAL_OR_KEYWORD"
        )
        assert positional == expected

    def test_exported_names_match_snapshot(self):
        assert set(api.__all__) == EXPORTED_NAMES

    def test_every_export_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_facade_reexported_from_package_root(self):
        for name in ("run", "verify_sc", "check_drf0", "crosscheck"):
            assert getattr(repro, name) is getattr(api, name)
            assert name in repro.__all__

    @pytest.mark.parametrize("name", ["explore", "campaign", "models"])
    def test_subpackage_names_are_not_shadowed(self, name):
        # These facade verbs live only at ``repro.api.*``: at the package
        # root the names are the subpackages.
        assert name not in repro.__all__
        assert getattr(repro, name) is importlib.import_module(f"repro.{name}")

    def test_submodule_import_as_forms(self):
        import repro.campaign.cache as c
        import repro.explore.oracle as o
        import repro.models.policies as p

        assert o.__name__ == "repro.explore.oracle"
        assert c.__name__ == "repro.campaign.cache"
        assert p.__name__ == "repro.models.policies"

    def test_models_subpackage_still_importable(self):
        from repro.models import policy_by_name  # noqa: F401
        from repro.models.policies import TSOPolicy  # noqa: F401

    def test_campaign_subpackage_still_importable(self):
        from repro.campaign import RunSpec  # noqa: F401
        from repro.campaign.spec import RunResult  # noqa: F401


class TestFacadeBehaviour:
    def test_run_accepts_policy_and_machine_names(self):
        program = fig1_dekker().executable_program()
        result = api.run(program, "SC", machine="net_nocache", seed=3)
        assert result.completed
        assert result.observable is not None

    def test_verify_sc_classifies_outcomes(self):
        program = fig1_dekker().executable_program()
        sc_set = api.verify_sc(program)
        assert sc_set
        good = next(iter(sc_set))
        assert api.verify_sc(program, [good]) == []

    def test_check_drf0_flags_the_racy_dekker(self):
        program = fig1_dekker().program
        report = api.check_drf0(program)
        assert not report.obeys

    def test_campaign_is_run_campaign(self):
        # One campaign function: the facade name is the engine itself.
        assert api.campaign is api.run_campaign


class TestModelCentricSurface:
    def test_run_accepts_model_alias(self):
        program = fig1_dekker().executable_program()
        result = api.run(program, model="TSO", machine="net_nocache", seed=3)
        assert result.completed
        assert result.observable is not None

    def test_policy_and_model_are_exclusive(self):
        program = fig1_dekker().executable_program()
        with pytest.raises(TypeError, match="exactly one"):
            api.run(program, "SC", model="TSO")
        with pytest.raises(TypeError, match="exactly one"):
            api.run(program)

    def test_verify_sc_model_keyword_matches_enumeration_for_sc(self):
        program = fig1_dekker().executable_program()
        assert api.verify_sc(program, model="SC") == api.verify_sc(program)

    def test_verify_sc_weak_model_accepts_more(self):
        program = fig1_dekker().executable_program()
        sc_set = api.verify_sc(program)
        tso_set = api.verify_sc(program, model="TSO")
        assert sc_set < tso_set

    def test_conditional_model_is_sc_for_a_program_meeting_its_condition(self):
        # The all-sync Dekker obeys DRF0, so Definition 2 promises SC.
        # It is not DRF0-R (a read-only sync races with a writing sync),
        # so WO-DRF0R keeps only its fence/coherence rule there.
        program = fig1_dekker_all_sync().program
        sc_set = api.verify_sc(program)
        assert api.verify_sc(program, model="WO-DRF0") == sc_set
        relaxed = api.verify_sc(program, model="RELAXED")
        assert api.verify_sc(program, model="WO-DRF0R") == relaxed != sc_set

    def test_conditional_drf0_r_model_is_sc_for_a_drf0_r_program(self):
        # Dekker over swaps: every conflict is between writing syncs.
        program = Program(
            [
                ThreadBuilder("P0").swap("a", "x", 1).swap("r0", "y", 1).build(),
                ThreadBuilder("P1").swap("b", "y", 1).swap("r1", "x", 1).build(),
            ],
            name="dekker_swap",
        )
        sc_set = api.verify_sc(program)
        assert api.verify_sc(program, model="WO-DRF0R") == sc_set
        assert api.verify_sc(program, model="WO-DRF0") == sc_set
        assert api.verify_sc(program, model="RELAXED") != sc_set

    def test_conditional_model_is_relaxed_for_a_racy_program(self):
        program = fig1_dekker().program
        relaxed = api.verify_sc(program, model="RELAXED")
        assert api.verify_sc(program, model="WO-DRF0") == relaxed
        assert relaxed != api.verify_sc(program)

    def test_models_lists_every_registered_policy(self):
        rows = api.models()
        names = [row["name"] for row in rows]
        assert names == sorted(api.policy_names())
        assert "TSO" in names and "PSO" in names
        by_name = {row["name"]: row for row in rows}
        assert by_name["TSO"]["axiomatic_model"] == "TSO"
        assert by_name["DEF2"]["axiomatic_model"] == "WO-DRF0"
        for row in rows:
            assert row["summary"]
            assert row["cores"]

    def test_crosscheck_facade_coerces_names(self):
        report = api.crosscheck(
            tests=["fig1_dekker"],
            policies=["SC", "TSO"],
            configs=["net_nocache"],
            runs_per_test=4,
        )
        assert report.ok
        assert {c.policy_name for c in report.cells} == {"SC", "TSO"}


def _import_processor_alias():
    from repro.cpu import Processor  # noqa: F401


def _models_package_class_attribute():
    # Policy classes live in ``repro.models.policies`` (or the package
    # root), not on the ``repro.models`` package itself.
    return repro.models.SCPolicy


#: Retired calling forms -> the error each now raises.
RETIRED_FORMS = {
    "SCVerifier-positional-max_states": (
        lambda: SCVerifier(500_000), TypeError,
    ),
    "LitmusRunner.run-positional-runs": (
        lambda: LitmusRunner().run(
            fig1_dekker(), RelaxedPolicy, NET_NOCACHE, 5
        ),
        TypeError,
    ),
    "explore_program-positional-max_delays": (
        lambda: api.explore_program(
            fig1_dekker().executable_program(), RelaxedPolicy, 1
        ),
        TypeError,
    ),
    "repro.models-class-attribute": (
        _models_package_class_attribute, AttributeError,
    ),
    "repro.cpu-Processor-alias": (_import_processor_alias, ImportError),
}


class TestOneCallingForm:
    @pytest.mark.parametrize("form", sorted(RETIRED_FORMS))
    def test_retired_form_fails_loudly(self, form):
        call, error = RETIRED_FORMS[form]
        with pytest.raises(error):
            call()

    def test_models_package_registry_path_stays_silent(self):
        models_pkg = importlib.import_module("repro.models")

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            models_pkg.policy_by_name("TSO")
            models_pkg.policy_names()

    def test_scverifier_keyword_stays_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            SCVerifier(max_states=500_000)
            SCVerifier()

    def test_litmus_runner_keyword_call_stays_silent(self):
        runner = LitmusRunner()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            runner.run(fig1_dekker(), RelaxedPolicy, NET_NOCACHE, runs=3)
