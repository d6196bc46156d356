import pathlib
import re
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_REPORT: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_REPORT:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_REPORT:
            terminalreporter.write_line(line)


@pytest.fixture
def memory_cap():
    """Cap this process's address space 512 MiB above its current size, so an
    unbounded read fails with MemoryError instead of exhausting the host."""
    resource = pytest.importorskip("resource")
    status = pathlib.Path("/proc/self/status")
    if not status.exists() or not pathlib.Path("/dev/zero").exists():
        pytest.skip("needs /proc/self/status and /dev/zero")
    size = int(re.search(r"VmSize:\s+(\d+) kB", status.read_text())[1]) * 1024
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + (512 << 20)
    resource.setrlimit(resource.RLIMIT_AS,
                       (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
    yield
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
