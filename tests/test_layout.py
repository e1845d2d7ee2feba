"""`src/cbie/` holds only what the CLI runs.

Every public top-level function or class of the package is read somewhere
in the package outside its own definition, except the few names below that
the package keeps for its readers.  A reference written only for tests
belongs in `tests/reference.py`.  Only `linalg.py` imports ctypes, for the
LAPACK binding, and no module imports mmap: assembly holds no N x N array
but the system matrix, so none needs a memory map of its own.  No module
of the package or the tests imports a name it never reads.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "cbie"

ALLOWED_UNREFERENCED = {
    "compactness_probe": "imported by the acceptance suite",
    "condition_report": "imported by the acceptance suite",
    "eq8_residuals": "imported by the acceptance suite",
    "lens_domain": "imported by the acceptance suite",
    "load_system": "the documented reader of the system.bin dump",
}


def _names(node) -> set:
    """Every name read inside node, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _unreferenced() -> set:
    public, reads = [], []  # reads: (the statement's own name or None, names it reads)
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    public.append(own)
            reads.append((own, _names(stmt)))
    return {name for name in public
            if not any(name in names for own, names in reads if own != name)}


def test_every_public_definition_is_read_in_the_package():
    assert _unreferenced() == set(ALLOWED_UNREFERENCED)


def _imported(path: Path) -> set:
    """Every module that path imports, at any depth."""
    return {name for node in ast.walk(ast.parse(path.read_text()))
            for name in ([a.name for a in node.names] if isinstance(node, ast.Import)
                         else [node.module or ""] if isinstance(node, ast.ImportFrom)
                         else [])}


def _importers(modules: set) -> set:
    """The package's files that import any of modules or a submodule of one."""
    return {path.name for path in PACKAGE.glob("*.py")
            if any(name in modules or name.split(".")[0] in modules
                   for name in _imported(path))}


def test_only_linalg_imports_ctypes_or_mmap():
    assert _importers({"ctypes", "numpy.ctypeslib"}) == {"linalg.py"}
    assert _importers({"mmap"}) == set()


def _unread_imports(path: Path) -> set:
    """The names path imports, at any depth, that it never reads."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    return bound - _names(tree)


# the acceptance suite is kept as it was written
UNREAD_IMPORTS = {"tests/test_acceptance.py": ["pytest"]}


def test_no_module_imports_a_name_it_never_reads():
    unread = {f"{path.parent.name}/{path.name}": sorted(_unread_imports(path))
              for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))}
    assert {name: names for name, names in unread.items() if names} == UNREAD_IMPORTS
