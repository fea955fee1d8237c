"""Shared pytest wiring: collects acceptance-criterion verdict lines and
runs child interpreters on the package under test."""

import os
import subprocess
import sys

import brokenstick

_criterion_lines: list[str] = []


def record_criterion(line: str) -> None:
    _criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_criterion_lines):
            terminalreporter.write_line(line)


def run_module(monkeypatch, *argv):
    # the child interpreter imports the same package as this one
    src = os.path.dirname(os.path.dirname(brokenstick.__file__))
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(path))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True)
