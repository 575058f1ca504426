"""The README's code examples, run as written so that they cannot rot."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(heading):
    """The first ```python block after the section ``heading``."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"## {heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs():
    namespace = {}
    exec(compile(python_block("Library quick start"), str(README), "exec"), namespace)
    assert namespace["report"].total == namespace["value"]
    assert len(namespace["grads"]) == 3
