"""Every invariant of `entbase validate`, one test per CHECKS entry, at the suite's own grids."""

import pytest

from entbase.validation import CHECKS


@pytest.mark.parametrize("check", [fn for _, fn, _ in CHECKS], ids=[name for name, _, _ in CHECKS])
def test_check(check):
    check()
