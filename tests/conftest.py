"""Shared fixtures: the three desk-scale scheme specs, built once per session.

The inner codebook builds dominate fixture cost, so every module that needs
a spec pulls it from here.
"""

import pytest

from delcodes.presets import make_scheme_spec

# One line per acceptance criterion, echoed after the test summary so a CI log
# shows the verdicts even with output capture on.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_LINES


@pytest.fixture(scope="session")
def hn_desk():
    return make_scheme_spec("highnoise")


@pytest.fixture(scope="session")
def br_desk():
    return make_scheme_spec("hirate")


@pytest.fixture(scope="session")
def ld_desk():
    return make_scheme_spec("listdec")
