import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_REPORT: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_REPORT:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_REPORT:
            terminalreporter.write_line(line)
