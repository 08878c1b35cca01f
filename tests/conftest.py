import os


def pytest_configure(config):
    """Let `python -m herdsplit` subprocesses import the package from src/,
    as pyproject's `pythonpath` does for this process, installed or not."""
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one pass/fail line per acceptance criterion at the end."""
    results = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" in nodeid and "::" in nodeid:
                name = nodeid.split("::")[-1]
                results.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if results:
        terminalreporter.section("acceptance criteria")
        for name, verdict in sorted(set(results)):
            terminalreporter.write_line(f"{verdict}  {name}")
