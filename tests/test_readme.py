"""The README and the package's public surface agree with the current API."""

import importlib
import re
import types
from pathlib import Path

import quditbell

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block in the quick tour"
    exec(compile(block.group(1), f"{README}:quick tour", "exec"), {})
    assert "True" in capsys.readouterr().out


def test_all_is_the_public_surface():
    names = quditbell.__all__
    assert names == sorted(set(names))
    # every entry resolves, and no public attribute is missing from the list
    public = {
        name
        for name, value in vars(quditbell).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public


def _resolve(dotted: str):
    """The object a dotted name reads, importing submodules that are not loaded yet."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


def test_readme_names_resolve():
    text = README.read_text(encoding="utf-8")
    names = {m.rstrip(".") for m in re.findall(r"\b(?:qb|quditbell)\.[A-Za-z_][\w.]*", text)}
    assert names, "no qb./quditbell. names in the README"
    missing = []
    for name in sorted(names):
        try:
            _resolve(re.sub(r"^qb\.", "quditbell.", name))
        except (AttributeError, ImportError):
            missing.append(name)
    assert not missing, f"README names that do not resolve: {missing}"
