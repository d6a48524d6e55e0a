"""The examples of the README's "Library use" section run as written."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def library_blocks():
    """The python blocks of README "Library use", in order."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)


def test_library_use_examples_run_in_order():
    # Later blocks use the names earlier ones define, as a reader runs them.
    blocks = library_blocks()
    assert len(blocks) == 4
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        for block in blocks:
            exec(compile(block, README, "exec"), namespace)
    assert out.getvalue()
