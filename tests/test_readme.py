"""The README's library tour runs as written."""

import pathlib
import re
import warnings

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 3
    namespace = {"__name__": "readme_tour"}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for i, block in enumerate(blocks, start=1):
            exec(compile(block, f"README.md python block {i}", "exec"),
                 namespace)
