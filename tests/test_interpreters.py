"""pyproject.toml claims requires-python >= 3.10: the CLI writes the same
bytes under every python3.N (N >= 10) on PATH as under the interpreter
running the tests."""

import os
import re
import shutil
import subprocess
import sys

import pytest

import tropcount

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SRC = os.path.dirname(os.path.dirname(tropcount.__file__))
COMMANDS = (["count", "theta_exact.json"],
            ["prelog", "theta_exact.json", "--json"])


def _other_interpreters() -> dict:
    """{N: path} of the first python3.N on PATH that runs and reports
    version 3.N, for each N >= 10 other than the running minor version."""
    found = {}
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        try:
            names = sorted(os.listdir(directory or "."))
        except OSError:
            continue
        for name in names:
            match = re.fullmatch(r"python3\.(\d+)", name)
            if not match:
                continue
            minor = int(match[1])
            if minor < 10 or minor == sys.version_info.minor or minor in found:
                continue
            path = os.path.join(directory, name)
            try:
                probe = subprocess.run(
                    [path, "-c", "import sys; print(sys.version_info[1])"],
                    capture_output=True, text=True, timeout=60)
            except (OSError, subprocess.TimeoutExpired):
                continue
            if probe.returncode == 0 and probe.stdout.strip() == str(minor):
                found[minor] = path
    return found


def _run(python, argv, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([python, "-m", "tropcount.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_other_interpreters_write_the_same_bytes(tmp_path):
    others = _other_interpreters()
    if not others:
        pytest.skip("no other python3.N (N >= 10) on PATH")
    shutil.copy(os.path.join(GOLDEN, "theta_exact.json"), tmp_path)
    for argv in COMMANDS:
        expected = _run(sys.executable, argv, tmp_path)
        assert expected[0] == 0 and expected[1]
        for minor, python in sorted(others.items()):
            assert _run(python, argv, tmp_path) == expected, (minor, argv)
