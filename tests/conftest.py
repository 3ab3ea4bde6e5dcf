"""Shared pytest configuration: acceptance-criteria reporting.

Tests marked ``@pytest.mark.acceptance(num, title, budget=seconds)`` are
collected into a final terminal section with one PASS/FAIL line per
criterion, its wall time, and (on failure) the failing comparison.

OpenBLAS runs on one thread unless OPENBLAS_NUM_THREADS says otherwise: the
suite's matrices are small (dim <= 1024), and on a 2-core machine two threads
make criterion 7 take about twice as long as one.  The variable is set before
anything imports numpy, since OpenBLAS reads it once at load.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

_RESULTS: dict[int, dict] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(num, title, budget=None): acceptance criterion with "
        "an optional wall-time budget in seconds",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    if report.when == "setup" and report.passed:
        return
    if report.when == "teardown":
        return
    num, title = marker.args
    entry = _RESULTS.setdefault(
        num,
        {"title": title, "passed": True, "duration": 0.0,
         "budget": marker.kwargs.get("budget"), "detail": ""},
    )
    entry["duration"] += report.duration
    if not report.passed:
        entry["passed"] = False
        crash = getattr(report.longrepr, "reprcrash", None)
        text = crash.message if crash is not None else str(report.longrepr)
        entry["detail"] = " ".join(text.split())[:200]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_RESULTS):
        entry = _RESULTS[num]
        status = "PASS" if entry["passed"] else "FAIL"
        line = f"ACCEPTANCE {num}: {status} — {entry['title']} ({entry['duration']:.1f}s"
        if entry["budget"] is not None:
            line += f", budget {entry['budget']:.0f}s"
        line += ")"
        if entry["detail"] and not entry["passed"]:
            line += f" :: {entry['detail']}"
        terminalreporter.write_line(line)
