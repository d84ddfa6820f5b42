"""Unit tests for the litmus catalog: every test's DRF0 status and its
forbidden outcome really being SC-forbidden."""

import pytest

from repro.drf.drf0 import obeys_drf0
from repro.litmus.catalog import (
    catalog_by_name,
    coherence_corr,
    critical_section,
    fig1_dekker,
    fig1_dekker_all_sync,
    iriw,
    load_buffering,
    load_test,
    message_passing,
    message_passing_sync,
    standard_catalog,
)
from repro.litmus.parse import LitmusParseError
from repro.litmus.runner import LitmusRunner


class TestCatalogStructure:
    def test_names_unique(self):
        names = [t.name for t in standard_catalog()]
        assert len(names) == len(set(names))

    def test_catalog_by_name_roundtrip(self):
        table = catalog_by_name()
        assert table["fig1_dekker"].name == "fig1_dekker"

    def test_warm_variants_distinct(self):
        assert fig1_dekker(warm=True).name != fig1_dekker(warm=False).name


class TestLoadTest:
    def test_catalog_name(self):
        assert load_test("fig1_dekker") is not None
        assert load_test("fig1_dekker").name == "fig1_dekker"

    def test_litmus_file(self, tmp_path):
        path = tmp_path / "t.litmus"
        path.write_text("name: from_file\nP0     | P1\nx = 1  | y = 1\n")
        test = load_test(str(path), warm=True)
        assert test.name == "from_file" and test.warm_caches

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="neither a catalog test"):
            load_test("no_such_test")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_test(str(tmp_path / "missing.litmus"))

    def test_malformed_file_names_the_path(self, tmp_path):
        path = tmp_path / "broken.litmus"
        path.write_text("name: broken\nP0 | P1\nx = = 1 | y = 1\n")
        with pytest.raises(LitmusParseError, match="broken.litmus: line 3"):
            load_test(str(path))


class TestDRF0Status:
    """Which catalog programs obey Definition 3."""

    @pytest.mark.parametrize(
        "factory", [fig1_dekker, message_passing, load_buffering, coherence_corr]
    )
    def test_racy_tests_violate_drf0(self, factory):
        assert not obeys_drf0(factory().program)

    def test_iriw_violates_drf0(self):
        assert not obeys_drf0(iriw().program)

    @pytest.mark.parametrize(
        "factory",
        [fig1_dekker_all_sync, message_passing_sync, critical_section],
    )
    def test_sync_tests_obey_drf0(self, factory):
        assert obeys_drf0(factory().program)


class TestForbiddenOutcomesAreSCForbidden:
    """The `forbidden` annotation must match the SC enumerator."""

    @pytest.mark.parametrize(
        "factory",
        [
            fig1_dekker,
            fig1_dekker_all_sync,
            message_passing,
            message_passing_sync,
            load_buffering,
            coherence_corr,
            iriw,
        ],
    )
    def test_forbidden_not_in_sc_set(self, factory):
        test = factory()
        runner = LitmusRunner()
        assert test.forbidden not in runner.sc_outcomes(test)

    def test_critical_section_sc_outcomes_reach_two(self):
        test = critical_section()
        outcomes = LitmusRunner().sc_outcomes(test)
        # Each processor's final `c` is the value it stored; under any SC
        # execution one of them stored 2.
        assert all(max(outcome) == 2 for outcome in outcomes)
