"""The README's library example and the package exports name only live code."""

import re
from pathlib import Path

import misfolio

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_quickstart_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library quickstart", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_every_exported_name_resolves():
    missing = [name for name in misfolio.__all__ if not hasattr(misfolio, name)]
    assert missing == []
    assert len(set(misfolio.__all__)) == len(misfolio.__all__)
