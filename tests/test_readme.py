"""The README against the code: the "Library use" examples run as written,
and the config reference lists exactly the keys the parser reads."""

import contextlib
import io
import os
import re

from demuon import config

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_text():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def library_blocks():
    """The python blocks of README "Library use", in order."""
    section = readme_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
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


def reference_keys():
    """{section: [keys]} of the README's "Full reference" block, in the order listed.

    A `[section]` line opens a section; a line that starts in the first
    column names its keys before the `=` (`m, n = ...` names two). Indented
    lines continue the previous key's description.
    """
    block = readme_text().split("Full reference (defaults in brackets):", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", block, re.M | re.S).group(1)
    sections = {}
    for line in block.splitlines():
        if line.startswith("["):
            keys = sections.setdefault(line.strip("[]"), [])
        elif line[:1].isalpha():
            keys += [key.strip() for key in line.split("=", 1)[0].split(",")]
    return sections


def test_readme_config_reference_lists_every_key_of_the_format():
    expected = {}
    for section, key in config._FORMAT:
        expected.setdefault(section, []).append(key)
    assert reference_keys() == expected
