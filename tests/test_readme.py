"""Every ```python block of README.md runs, so the tour cannot name a
function or record that is gone."""
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = [(TEXT.count("\n", 0, m.start(1)), m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)]


@pytest.mark.parametrize("line, code", BLOCKS,
                         ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_python_block_runs(line, code):
    # padded so that a traceback names the README line
    exec(compile("\n" * line + code, str(README), "exec"), {})


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2
