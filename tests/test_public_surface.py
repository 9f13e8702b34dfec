"""Every public name of the library is used by the program: each name in a
module's __all__ appears in the library modules, the scripts or the
benchmark harness (not counting their tests) as a name, an attribute or an
import.  A function that only tests call belongs in tests/ as an oracle.

The CLI owns the report format: no other library module serializes JSON or
opens a file for writing, and no program file imports a private name of
green_spectral."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blockjacobi"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PROGRAM = MODULES + sorted(p for d in ("scripts", "perfbench")
                           for p in (ROOT / d).glob("*.py")
                           if not p.name.startswith("test_"))


def public_names(path: Path) -> list[str]:
    """The strings of the module's top-level __all__ list."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def used_names() -> set[str]:
    used = set()
    for path in PROGRAM:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    return used


def test_program_files_found():
    assert {p.name for p in MODULES} >= {"cli.py", "dense_linalg.py", "bounds.py"}
    assert any(p.parent.name == "scripts" for p in PROGRAM)
    assert any(p.parent.name == "perfbench" for p in PROGRAM)


@pytest.mark.parametrize("module", MODULES, ids=[p.stem for p in MODULES])
def test_every_public_name_is_used(module):
    names = public_names(module)
    assert names, f"{module.name} has no __all__"
    unused = sorted(set(names) - used_names())
    assert unused == [], f"{module.stem} exports names nothing in the program uses"


def _writes(node) -> bool:
    """A call that renders JSON or writes a file: json.dump or json.dumps,
    open with a mode that writes (or one not spelled out as a constant), or
    Path.write_text / write_bytes."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    if isinstance(f, ast.Attribute):
        if isinstance(f.value, ast.Name) and f.value.id == "json":
            return f.attr in ("dump", "dumps")
        return f.attr in ("write_text", "write_bytes")
    if isinstance(f, ast.Name) and f.id == "open":
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), None)
        if mode is None:
            return False
        return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+"))
    return False


def test_only_cli_renders_or_writes():
    writers = sorted({(p.stem, node.lineno) for p in MODULES if p.name != "cli.py"
                      for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
                      if _writes(node)})
    assert writers == [], "only cli.py may serialize JSON or write a file"
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert any(_writes(node) for node in ast.walk(cli))


def test_no_private_import_from_green_spectral():
    private = sorted(
        (p.name, alias.name) for p in PROGRAM
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").rpartition(".")[2] == "green_spectral"
        for alias in node.names if alias.name.startswith("_"))
    assert private == [], "green_spectral's private names stay inside it"
