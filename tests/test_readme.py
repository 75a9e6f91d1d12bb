"""README's "Library use" snippets run as written."""

import re
from pathlib import Path

from vczsim import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippets() -> list[str]:
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_use_snippets_run(tmp_path, monkeypatch):
    first, second = library_snippets()[:2]
    exec(compile(first, "README first snippet", "exec"), {})
    monkeypatch.chdir(tmp_path)
    exec(compile(second, "README second snippet", "exec"), {})
    assert cli.main(["run", "seed2026.scn", "--out", "out"]) == 3
