"""README's library quick start runs as written and measures what it says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    section = README.read_text().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1, blocks
    return blocks[0]


def test_library_quick_start_runs():
    scope = {}
    exec(compile(_quick_start(), str(README), "exec"), scope)
    # the simulated front travels at the first-order speed, and L's top
    # eigenvalue is the translation mode
    assert abs(scope["measured"] / (1e-3 * scope["c1"]) - 1) < 1e-3
    assert abs(scope["vals"][0]) < 1e-3
