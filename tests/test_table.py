"""The table module's boundary, and check_writable against replacing.

The reader's and writer's format tests are TestReadTable and TestWriteTable
in test_datagen.py.
"""

import ast
import os
from pathlib import Path

import pytest

from survmix import table

SRC = Path(__file__).resolve().parents[1] / "src" / "survmix"


def survmix_imports(path):
    """(module, name) for each name the module at path imports from the
    package: module is None for 'from . import name'."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("survmix")):
            yield from ((node.module, alias.name) for alias in node.names)


def test_no_module_imports_a_private_name_of_another():
    # a leading underscore marks what only its own module may use
    private = [f"{path.name}: {module}.{name}" for path in sorted(SRC.glob("*.py"))
               for module, name in survmix_imports(path) if name.startswith("_")]
    assert private == []


def test_table_imports_no_survmix_module_but_errors():
    # the format works on paths, headers and column arrays, not datasets
    assert {module for module, _ in survmix_imports(SRC / "table.py")} == {"errors"}


@pytest.mark.parametrize("name, reason", [("dir", "Is a directory"),
                                          ("missing/new", "No such file or directory")])
def test_check_writable_raises_what_replacing_raises_and_leaves_nothing(tmp_path, name,
                                                                        reason):
    (tmp_path / "dir").mkdir()
    (tmp_path / "old").write_text("old\n")
    paths = [str(tmp_path / "old"), str(tmp_path / name)]
    with pytest.raises(OSError) as checked:
        table.check_writable(*paths)
    with pytest.raises(OSError) as written:
        with table.replacing(*paths) as files:
            for f in files:
                f.write(b"new\n")
    assert str(checked.value) == str(written.value) == f"{paths[1]}: cannot write: {reason}"
    table.check_writable(paths[0], str(tmp_path / "new"))
    assert sorted(os.listdir(tmp_path)) == ["dir", "old"] and os.listdir(tmp_path / "dir") == []
    assert (tmp_path / "old").read_text() == "old\n"
