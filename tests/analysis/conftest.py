"""Shared fixtures for the verification-layer tests.

The mutation suites are the expensive part (each explores a few
thousand states through the real protocol code), so they run once per
session and are shared by the mutation, replay, and CLI tests.
"""

import pytest

from repro.analysis.model import check_suite, mutation_config


@pytest.fixture(scope="session")
def no_dedup_suite():
    """Model-check the protocol with wire-level dedup disabled."""
    return check_suite(mutation_config("no_dedup"))


@pytest.fixture(scope="session")
def no_answer_cache_suite():
    """Model-check the protocol with the rep answer cache skipped."""
    return check_suite(mutation_config("no_answer_cache"))


@pytest.fixture(scope="session")
def no_must_send_suite():
    """Model-check the protocol with buddy-learned matches unprotected."""
    return check_suite(mutation_config("no_must_send"))
