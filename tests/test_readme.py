"""The examples in README.md run as written."""

import json
import re
from pathlib import Path

from qdpair import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.M | re.S)
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_config_example_resolves():
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(),
                        flags=re.M | re.S)
    assert len(blocks) == 1
    resolved = cli.resolve_config(json.loads(blocks[0]))
    assert cli.config_digest(resolved) == \
        "f8d7497d3ec5b9a5d6a2d615bf2166acdf9a3140dc5e7ec435c5379023d5e6ac"
