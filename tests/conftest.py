"""Fixtures that several test files share."""

import pytest


@pytest.fixture(scope="session")
def verify_all_rows():
    """verify.run_all() at its defaults, the rows of ``telesum verify all``:
    the four suites run once for every test that reads them."""
    from telesum import verify

    return verify.run_all()
