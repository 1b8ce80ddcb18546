import sys

import pytest

sys.dont_write_bytecode = True  # no src/permstab/__pycache__ left behind for a later run to import

from permstab.groups import FinGroup


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def spread_levels(monkeypatch):
    """A list that gains the size of every `FinGroup._spread` level run from now on."""
    levels = []
    spread = FinGroup._spread

    def counted(G, letters):
        for level in spread(G, letters):
            levels.append(len(level))
            yield level

    monkeypatch.setattr(FinGroup, "_spread", counted)
    return levels
