"""Each qdpair module keeps its underscore names to itself."""

import ast
from pathlib import Path

import qdpair

PACKAGE = Path(qdpair.__file__).resolve().parent


def private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def foreign_private_names(path: Path) -> list:
    """(line, name) of each underscore name of another qdpair module that
    the module at ``path`` imports or reads as an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    siblings = set()   # local names bound to qdpair modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            in_package = node.level > 0 or (node.module or "").split(".")[0] == "qdpair"
            if not in_package:
                continue
            for alias in node.names:
                if node.module in (None, "qdpair"):   # from . import module
                    siblings.add(alias.asname or alias.name)
                if private(alias.name):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("qdpair.") and alias.asname:
                    siblings.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in siblings):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def test_no_module_reaches_into_another_modules_private_names():
    found = {path.name: foreign_private_names(path)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) >= 10
    assert not any(found.values()), {k: v for k, v in found.items() if v}


def test_the_guard_sees_imports_and_attribute_reads(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from .twoqubit import _MAGIC, singlet_fraction\n"
                    "from . import swap\n"
                    "import qdpair.fock as fock\n"
                    "x = swap._kernel_cache, fock._helper, swap.__name__\n")
    assert foreign_private_names(path) == [(1, "twoqubit._MAGIC"),
                                           (4, "swap._kernel_cache"),
                                           (4, "fock._helper")]
