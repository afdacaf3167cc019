import os
import re
from pathlib import Path

# the CLI tests start child Pythons; they import the package from this
# checkout too, as the pythonpath setting in pyproject.toml does here
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH")))
)

# outcome of each numbered acceptance criterion, printed in the summary
_ACCEPTANCE: dict[int, str] = {}

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _CRITERION.search(report.nodeid)
    if match:
        _ACCEPTANCE[int(match.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        outcome = "PASS" if _ACCEPTANCE[number] == "passed" else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number}: {outcome}")
