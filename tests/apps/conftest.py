"""Floating-point warnings are errors in the apps tests.

The row-blocked stencil computes lanes on the ghost columns and throws
them away; an overflow or invalid value there (or anywhere in a solver
or forcing field) must fail a test instead of passing unseen.
"""

from pathlib import Path

import pytest

_HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))
