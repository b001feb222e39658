"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(section: str) -> list[str]:
    """The ```python blocks of one `## ` section of the README, in order."""
    text = README.read_text("utf-8")
    start = text.index(f"\n## {section}\n")
    end = text.find("\n## ", start + 1)
    return re.findall(r"```python\n(.*?)```", text[start:end if end >= 0 else None], re.S)


def test_library_quick_start(capsys):
    # the scenario run, then the extractor call on its trace; the block
    # after them reads a file the reader supplies
    run_block, extractor_block = python_blocks("Quick start: library")[:2]
    assert "generate_scenario" in run_block and "run(trace)" in run_block
    assert "FeatureParams(" in extractor_block
    namespace: dict = {}
    for block in (run_block, extractor_block):
        exec(compile(block, f"{README.name} quick start", "exec"), namespace)
    out = capsys.readouterr().out
    assert "alerts at windows:" in out
    assert len(out.splitlines()) == 7  # five windows, the alerts, the eye features
