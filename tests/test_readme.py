"""The README's examples run: every ```json document through the CLI
subcommands that read it, and the ```python quick tour as a script."""

import json
import re
from pathlib import Path

import pytest

from latnorm.cli import main
from report_keys import check_keys

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def _commands(doc):
    if "factor" in doc:
        return ["analyze"]
    return ["tob", "cyclic", "zonotope"] if "F" in doc["sets"] else ["tob", "cyclic"]


CASES = [
    (i, command)
    for i, block in enumerate(_blocks("json"))
    for command in _commands(json.loads(block))
]


def test_readme_has_documents_and_a_tour():
    assert {c for _, c in CASES} == {"analyze", "tob", "cyclic", "zonotope"}
    assert len(_blocks("python")) == 1


@pytest.mark.parametrize("index, command", CASES)
def test_json_document_runs(index, command, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(_blocks("json")[index])
    assert main([command, str(path)]) == 0, capsys.readouterr().err
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == command
    check_keys(report)


def test_quick_tour_runs():
    exec(compile(_blocks("python")[0], "README.md", "exec"), {})
