from __future__ import annotations

import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    # each demo asserts its own claims and ends by printing "ok"
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip().endswith("ok")


def test_readme_python_blocks_run(capsys):
    # every ```python block of the README runs as written and prints something
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert blocks
    for k, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {k}", "exec"), {"__name__": "__main__"})
        assert capsys.readouterr().out.strip()
