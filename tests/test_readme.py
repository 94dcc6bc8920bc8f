"""The examples of README.md, run as the reader would run them."""

import contextlib
import io
import json
import os
import re

import pytest

from tropcount.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "README.md")


def _blocks(language: str) -> list[str]:
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    return re.findall(rf"^```{language}\n(.*?)^```$", text,
                      re.MULTILINE | re.DOTALL)


def _console(command: str) -> list[str]:
    """The output lines shown under "$ tropcount COMMAND"."""
    prompt = f"$ tropcount {command}\n"
    (block,) = [b for b in _blocks("console") if b.startswith(prompt)]
    return block[len(prompt):].splitlines()


def _run(argv, capsys) -> list[str]:
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out.splitlines()


@pytest.fixture
def quick_start(tmp_path, monkeypatch):
    """The directory the "Quick start" snippet wrote theta.json in."""
    monkeypatch.chdir(tmp_path)
    (snippet,) = [b for b in _blocks("python") if "save_curve(" in b]
    exec(snippet, {})
    return tmp_path


def test_analyze_prints_the_readme_block(quick_start, capsys):
    assert _run(["analyze", "theta.json"], capsys) == _console(
        "analyze theta.json")


def test_realizable_and_count_print_the_readme_lines(quick_start, capsys):
    shown = [line for line in _console("realizable theta.json")
             if line != "..."]
    out = _run(["realizable", "theta.json"], capsys)
    assert shown and all(line in out for line in shown)
    # theta.json with the exact multipliers the README gives
    (multipliers,) = [b for b in _blocks("json")
                      if b.startswith('"multipliers"')]
    doc = json.loads((quick_start / "theta.json").read_text("utf-8"))
    doc.update(json.loads("{" + multipliers + "}"))
    (quick_start / "theta_exact.json").write_text(json.dumps(doc),
                                                  encoding="utf-8")
    shown = [line for line in _console("count theta_exact.json")
             if line != "..."]
    out = _run(["count", "theta_exact.json"], capsys)
    assert shown and all(line in out for line in shown)


def test_library_use_prints_what_its_comments_say():
    (snippet,) = [b for b in _blocks("python") if "count_curves(" in b]
    expected = re.findall(r"^print\(.*#\s*(.*)$", snippet, re.MULTILINE)
    assert expected == ["realizable", "1"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(snippet, {})
    assert stdout.getvalue().splitlines() == expected
