"""The README's library quick tour runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block in the quick tour"
    exec(compile(block.group(1), f"{README}:quick tour", "exec"), {})
    assert "True" in capsys.readouterr().out
