"""The public API is exactly what README's "Library entry points" imports."""

import ast
import re
from pathlib import Path

import eitmol

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_entry_points():
    text = README.read_text("utf-8")
    section = text.split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]
    return {alias.name for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.ImportFrom) and node.module == "eitmol"
            for alias in node.names}


def test_all_names_resolve():
    for name in eitmol.__all__:
        assert getattr(eitmol, name) is not None, name


def test_all_matches_readme_entry_points():
    assert len(eitmol.__all__) == len(set(eitmol.__all__))
    assert set(eitmol.__all__) == readme_entry_points()
