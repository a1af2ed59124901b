"""Shared fixtures and the acceptance-criteria summary hook."""

import signal

import numpy as np
import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(num, text): marks a test as one numbered acceptance criterion",
    )


_CRITERIA = {}
_OUTCOMES = {}


def pytest_collection_modifyitems(items):
    for item in items:
        mark = item.get_closest_marker("acceptance")
        if mark is not None:
            _CRITERIA[item.nodeid] = (mark.args[0], mark.args[1])


def pytest_deselected(items):
    for item in items:
        if item.nodeid in _CRITERIA:
            _OUTCOMES[item.nodeid] = "NOT RUN"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if item.nodeid in _CRITERIA and report.when in ("setup", "call"):
        if report.failed:
            _OUTCOMES[item.nodeid] = "FAIL"
        elif report.skipped:
            _OUTCOMES[item.nodeid] = "SKIP"
        elif report.when == "call" and report.passed:
            _OUTCOMES[item.nodeid] = "PASS"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    ordered = sorted(_CRITERIA.items(), key=lambda kv: kv[1][0])
    for nodeid, (num, text) in ordered:
        status = _OUTCOMES.get(nodeid, "FAIL")
        terminalreporter.write_line(f"criterion {num}: {status} - {text}")


def random_gpssm(rng, length):
    """(residues, grouped profile): uniform residues and an (L, 10) array
    of uniform values in (0,1)."""
    letters = "".join(rng.choice(list("ARNDCQEGHILKMFPSTWYV"), size=length))
    values = rng.random((length, 10))
    return letters, values


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def deadline():
    """arm(seconds): fail the test once seconds of wall time pass, so a
    hang ends in seconds. SIGALRM raises pytest's Failed, which no
    `except Exception` in the code under test can swallow."""
    def expire(signum, frame):
        pytest.fail("deadline passed: the code under test hangs")

    previous = signal.signal(signal.SIGALRM, expire)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
