"""Each qdpair module keeps its underscore names to itself, and every
public name it defines has a reader."""

import ast
import re
from pathlib import Path

import qdpair

PACKAGE = Path(qdpair.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


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


def public_definitions(path: Path) -> list:
    """(qualified name, name) of each public module-level name the
    module at ``path`` binds, and of each public attribute (field,
    property, method, constant) of its classes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    module = path.stem
    found = []

    def bound(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            return [node.name]
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        return [t.id for t in targets if isinstance(t, ast.Name)]

    for node in tree.body:
        for name in bound(node):
            if not name.startswith("_"):
                found.append((f"{module}.{name}", name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                for name in bound(item):
                    if not name.startswith("_"):
                        found.append((f"{module}.{node.name}.{name}", name))
    return found


def reads(code: list, strings: list, words: str) -> set:
    """Names read: loaded or imported as names or attributes in the files
    ``code``, string constants in the files ``strings``, and the words of
    the text ``words``."""
    found = set(re.findall(r"\w+", words))
    for path in code:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and path in strings):
                found.add(node.value)
    return found


def test_every_public_definition_has_a_reader():
    scripts = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    read = reads(sorted(PACKAGE.glob("*.py")) + scripts, scripts,
                 (ROOT / "README.md").read_text())
    defined = [d for path in sorted(PACKAGE.glob("*.py")) for d in public_definitions(path)]
    assert len(defined) >= 100
    assert [q for q, name in defined if name not in read] == []


def test_the_reader_guard_sees_loads_imports_strings_and_words(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("LIMIT = 1\n"
                      "UNREAD = 2\n"
                      "def helper(): return LIMIT\n"
                      "class Record:\n"
                      "    kept: float\n"
                      "    dropped: float = 0.0\n"
                      "    TABLE = {}\n"
                      "    def _own(self): return self.kept\n"
                      "    @property\n"
                      "    def shown(self): return 1\n"
                      "    def bound(self): pass\n"
                      "    def stored(self): pass\n")
    reader = tmp_path / "reader.py"
    reader.write_text("from probe import helper, Record\n"
                      "r = Record()\n"
                      "r.TABLE\n"
                      "r.stored = getattr(r, 'bound')\n")
    assert [q for q, _ in public_definitions(module)] == [
        "probe.LIMIT", "probe.UNREAD", "probe.helper", "probe.Record",
        "probe.Record.kept", "probe.Record.dropped", "probe.Record.TABLE",
        "probe.Record.shown", "probe.Record.bound", "probe.Record.stored"]
    read = reads([module, reader], [reader], "The shown value.")
    assert {"LIMIT", "helper", "Record", "kept", "TABLE", "bound", "shown"} <= read
    assert not {"UNREAD", "dropped", "stored"} & read
    # a string constant is a read only in the files given as strings
    assert "bound" not in reads([module, reader], [], "")
