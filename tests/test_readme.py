"""README's "Library quick start" block runs as written, so the docs cannot
name removed API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    section = README.read_text().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return block


def test_readme_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    aoi, energy = map(float, lines[0].split())
    assert str(aoi).startswith("2.8086") and str(energy).startswith("6.4468")
    assert lines[1].startswith("SimResult(") and lines[2].startswith("SimResult(")
    # 100,000 slots in chunks of 65,536
    assert [line.split()[:2] for line in lines[3:]] == [["0", "65536"], ["65536", "34464"]]
