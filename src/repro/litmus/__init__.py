"""Litmus tests: catalog, runner, SC classification."""

from repro.litmus.catalog import (
    catalog_by_name,
    coherence_corr,
    critical_section,
    fig1_dekker,
    fig1_dekker_all_sync,
    iriw,
    load_buffering,
    message_passing,
    message_passing_sync,
    standard_catalog,
)
from repro.litmus.catalog import fig1_dekker_fenced
from repro.litmus.parse import LitmusParseError, parse_litmus
from repro.litmus.printer import UnrenderableError, render_litmus
from repro.litmus.suites import load_suite, load_suite_test, suite_paths
from repro.litmus.runner import LitmusResult, LitmusRunner
from repro.litmus.test import LitmusTest

__all__ = [
    "LitmusParseError",
    "LitmusResult",
    "LitmusRunner",
    "LitmusTest",
    "UnrenderableError",
    "fig1_dekker_fenced",
    "load_suite",
    "load_suite_test",
    "parse_litmus",
    "render_litmus",
    "suite_paths",
    "catalog_by_name",
    "coherence_corr",
    "critical_section",
    "fig1_dekker",
    "fig1_dekker_all_sync",
    "iriw",
    "load_buffering",
    "message_passing",
    "message_passing_sync",
    "standard_catalog",
]
