"""Shared test plumbing: collect acceptance verdict lines and print them
in the terminal summary (fd-level capture would otherwise swallow them),
record the calls into the x-scan, and empty the process-wide memos of the
code bounds and the optimizer."""

import pytest

from integral_census import _scan, codes, optimizer

verdict_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if verdict_lines:
        terminalreporter.section("acceptance verdicts")
        for line in verdict_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def scan_calls(monkeypatch):
    """The names of the ``_scan.scan_curves`` and ``_scan.scan_range`` calls
    made, in order; the scans still run."""
    calls: list[str] = []
    for name in ("scan_curves", "scan_range"):
        original = getattr(_scan, name)

        def recording(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(_scan, name, recording)
    return calls


@pytest.fixture
def cold_memos(monkeypatch):
    """Give every code-bound and optimizer memo an empty dict, for the test
    and again at each call of the returned function."""

    def cold():
        for module, name in ((codes, "_BEST"), (codes, "_CAPS"),
                             (optimizer, "_VERDICTS"), (optimizer, "_WORST_CASES")):
            monkeypatch.setattr(module, name, {})

    cold()
    return cold
