"""A run's inputs are its config and flags: no module reads the environment."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "shiftlab"
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """Each `os.environ`-style attribute or `from os import environ`-style name, with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                found.append(f"line {node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"line {node.lineno}: from os import {a.name}"
                      for a in node.names if a.name in ENVIRONMENT]
    return found


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_environment(module):
    assert environment_reads(module.read_text()) == []


def test_the_guard_sees_every_way_in():
    source = "import os\nfrom os import getenv\na = os.environ.get('X')\nb = os.getenv('Y')\n"
    assert sorted(environment_reads(source)) == [
        "line 2: from os import getenv", "line 3: os.environ", "line 4: os.getenv",
    ]
