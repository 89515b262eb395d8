"""The README's Python examples run as written."""

from pathlib import Path
import re

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    # the blocks build on each other: a later one uses the earlier names
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the second block's err is ||f||_2 of the gaussian, 2^(-1/4)
    assert namespace["err"] == pytest.approx(2 ** -0.25, rel=1e-12)
    assert namespace["c"].shape == (17,)
