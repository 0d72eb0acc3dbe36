"""README's library quick start runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs_verbatim(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    out = capsys.readouterr().out.splitlines()
    # The values the block's comments state.
    assert out[0] == "10"
    assert out[2].startswith("31 ")
    assert out[3] == "True"
    assert [p.shared_value for p in namespace["pairs"]] == [46, 48]
    assert {(r.code_a, r.code_b) for r in namespace["records"]} == {
        (p.code_a, p.code_b) for p in namespace["pairs"]
    }
