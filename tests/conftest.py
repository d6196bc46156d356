import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_REPORT: list[str] = []


def _refuse_at_run_time(monkeypatch, *funcs):
    """Make each function raise, at every binding in charvar."""

    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"{name} reached at run time")
        return refused

    forbidden = {id(f): f.__name__ for f in funcs}
    modules = [m for n, m in sys.modules.items() if n == "charvar" or n.startswith("charvar.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in forbidden:
                monkeypatch.setattr(module, attr, refuse(forbidden[id(value)]))


@pytest.fixture
def no_enumeration(monkeypatch):
    """Root enumeration and the Cartan matrix raise: the runtime paths read
    closed forms only."""
    from charvar import rootsys

    _refuse_at_run_time(monkeypatch, rootsys.positive_roots, rootsys.cartan_matrix)


@pytest.fixture
def no_classification(monkeypatch):
    """Building and classifying diagrams raise: what runs under it names
    derived types by the chain rule."""
    from charvar import rootsys

    _refuse_at_run_time(monkeypatch, rootsys.classify_diagram, rootsys.diagram_of,
                        rootsys.extended_diagram)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_REPORT:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_REPORT:
            terminalreporter.write_line(line)
