"""Shared pytest wiring: lists the acceptance one-liners in the summary.

Each acceptance test prints its ``[criterion NN]`` line; the lines are
taken from the captured output of the test reports, so no module state
is shared with the tests (``perfbench/tests`` has a ``conftest`` module
of its own, and both are collected in one session).
"""


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = sorted(
        line
        for reports in terminalreporter.stats.values()
        for report in reports
        if getattr(report, "when", None) == "call"
        for line in report.capstdout.splitlines()
        if line.startswith("[criterion ")
    )
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
