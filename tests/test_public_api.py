"""The package's public names: ``arccover.__all__`` is what ``__init__`` imports.

A name dropped from a module but left in ``__all__`` breaks
``from arccover import *``; a name imported but not listed is public by
accident.  The imports are read from the source of ``__init__``, so a
lazily loaded name still counts where its import statement sits.
"""

import ast
from pathlib import Path

import arccover


def imported_public_names() -> set[str]:
    tree = ast.parse(Path(arccover.__file__).read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names if not (alias.asname or alias.name).startswith("_")}


def test_all_is_sorted_without_duplicates():
    assert arccover.__all__ == sorted(set(arccover.__all__))


def test_every_listed_name_is_an_attribute():
    missing = [name for name in arccover.__all__ if not hasattr(arccover, name)]
    assert not missing, missing


def test_all_lists_exactly_the_imported_public_names():
    assert set(arccover.__all__) == imported_public_names()
