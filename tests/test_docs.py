"""The README's library example, its dotted names, its file paths and the package exports name only live code."""

import functools
import re
from pathlib import Path

import misfolio

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def test_every_dotted_name_in_readme_resolves():
    names = sorted(set(re.findall(r"\bmisfolio(?:\.\w+)+", README.read_text(encoding="utf-8"))))
    assert names  # the pattern still finds the README's references
    missing = [name for name in names if not _resolves(name)]
    assert missing == []


def test_every_repository_path_in_readme_exists():
    # a backticked relative path with at least one slash; package paths live under src/
    paths = sorted(set(re.findall(r"`([\w.-]+(?:/[\w.-]+)+/?)`", README.read_text(encoding="utf-8"))))
    assert paths  # the pattern still finds the README's references
    missing = [p for p in paths if not (ROOT / ("src/" + p if p.startswith("misfolio/") else p)).exists()]
    assert missing == []


def _resolves(dotted: str) -> bool:
    try:
        functools.reduce(getattr, dotted.split(".")[1:], misfolio)
    except AttributeError:
        return False
    return True
