"""Source hygiene: every name a package module imports is used, every
name the package exports has a reader, only the LP engine asks which form
of the basis inverse it holds, only the model builder makes model records,
and only the data model walks routes."""

import ast
import re
from pathlib import Path

import pytest

import vecopt

MODULES = sorted(
    p for p in Path(vecopt.__file__).parent.glob("*.py")
    if p.name != "__init__.py"
)
ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing else reads.

    A name counts as read where it appears as a name, as the root of an
    attribute, or inside a quoted annotation.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                quoted = ast.parse(part.value, mode="eval")
                used.update(
                    n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)
                )
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_the_scan_sees_an_unused_import():
    source = (
        "import math\nimport os.path\nfrom typing import Mapping, Sequence\n"
        "x: 'Mapping[str, int]' = {}\nprint(os.path.sep, 'math')\n"
    )
    assert unused_imports(source) == ["line 1: math", "line 3: Sequence"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def loaded_names(source: str) -> set[str]:
    """The names the module reads, as a name or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load)
    }


def test_the_scan_sees_a_load():
    source = "f(a)\nb = c.d\ne.g = 1\n"
    assert loaded_names(source) == {"a", "c", "d", "e", "f"}


def test_every_export_has_a_reader():
    """A name in ``vecopt.__all__`` is read by another package module, by
    the benchmark, the tools or the demos, or named in the README; an
    export only the tests call is a second way in to its layer."""
    readers = MODULES + sorted(
        p for d in ("bench", "tools", "demos") for p in (ROOT / d).glob("*.py")
    )
    read = set().union(*(loaded_names(p.read_text()) for p in readers))
    read |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    assert sorted(set(vecopt.__all__) - read) == []


def attribute_reads(source: str, name: str) -> list[int]:
    """The lines where the module reads an attribute called ``name``."""
    return sorted(
        {
            node.lineno
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and node.attr == name
            and isinstance(node.ctx, ast.Load)
        }
    )


def test_the_scan_sees_an_attribute_read():
    source = "ws.tableau = True\nif ws.tableau:\n    f(self.tableau)\n"
    assert attribute_reads(source, "tableau") == [2, 3]


@pytest.mark.parametrize(
    "path",
    sorted(
        p for p in Path(vecopt.__file__).parent.glob("*.py")
        if p.name != "simplex.py"
    ),
    ids=lambda p: p.name,
)
def test_only_the_engine_reads_the_form_of_the_inverse(path):
    """Branch and bound and the rest ask the workspace for penalties and
    snapshots, which answer in either form, never which form it is."""
    assert attribute_reads(path.read_text(), "tableau") == []


def calls(source: str, name: str) -> list[int]:
    """The lines where the module calls something called ``name``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if name in (getattr(func, "id", None), getattr(func, "attr", None)):
                lines.add(node.lineno)
    return sorted(lines)


def test_the_scan_sees_a_call():
    source = "VarDef('x')\nm.VarDef('y')\nf(VarDef)\nk = RowDef\n"
    assert calls(source, "VarDef") == [1, 2]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_model_is_read_as_arrays(path):
    """``build_milp`` writes the arrays directly, and the solver reads them,
    never the record views ``rows`` and ``variables`` built from them."""
    source = path.read_text()
    if path.name in ("bnb.py", "simplex.py"):
        for view in ("rows", "variables"):
            assert attribute_reads(source, view) == []
    if path.name != "milp.py":
        for record in ("VarDef", "RowDef"):
            assert calls(source, record) == []


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name != "types.py"],
    ids=lambda p: p.name,
)
def test_routes_are_walked_in_one_place(path):
    """How a route is stored and walked is decided by ``Scenario.hops``
    alone; the rest read a route's checked links from it, and the model's
    cleanup reads the relays off the model's rows."""
    source = path.read_text()
    for lookup in ("route", "link", "path_intermediates"):
        assert calls(source, lookup) == []
