"""Every sketchlab module's public names resolve, so a deleted function
cannot leave a stale entry in `__all__` behind, and every public name, and
every public method, property or classmethod of an exported class, is
used by the program itself, so API that only its own unit test calls
cannot grow back.  Likewise every defaulted parameter of a public
function or method is passed by some call in the program, so an option
that only tests set cannot grow back either, and every dataclass field
is read somewhere, so a stored value that nothing reads cannot either.
The grid layout of the heavy-frequency reads (the embedding, the rfftn
half and its mirror, the content key of a law) stays inside `measure`."""

import ast
import functools
import importlib
import math
import pkgutil
from pathlib import Path

import pytest

import sketchlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(sketchlab.__path__))

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "scripts", "benchmark")

# Public names (`module.name` or `module.Class.method`) that only tests
# use, and defaulted parameters (`module.func(param)`) that only tests
# pass, each kept on purpose.
TEST_ONLY = {
    "streaming.alternating_algorithm": "the one non-uniform reference algorithm",
    "measure.gamma_truncated(policy)": (
        "truncates at tails of 1e-3 and 1e-11 for the deficit and bound tests"
    ),
}


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(f"sketchlab.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from sketchlab.{name} import *", namespace)
    assert set(exported) <= namespace.keys()


def _all_assignment(tree: ast.Module) -> ast.Assign | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return node
    return None


def _span(node: ast.FunctionDef | ast.ClassDef) -> tuple[int, int]:
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return first, node.end_lineno


def _definition_spans(tree: ast.Module) -> dict[str, tuple[int, int]]:
    """First and last line of each top-level def, class or assignment, and
    of each public def in a class body, keyed `Class.method`."""
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            spans[node.name] = _span(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    spans[t.id] = (node.lineno, node.end_lineno)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    spans[f"{node.name}.{item.name}"] = _span(item)
    return spans


@functools.cache
def _references() -> dict[str, list[tuple[Path, int]]]:
    """Where each identifier, attribute or exact string appears in the
    program files, `__all__` lists aside; benchmark layers name the
    functions they wrap as strings."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    for d in PROGRAM_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            skip = _all_assignment(tree)
            skipped = set(map(id, ast.walk(skip))) if skip else set()
            for node in ast.walk(tree):
                if id(node) in skipped:
                    continue
                if isinstance(node, ast.Name):
                    word = node.id
                elif isinstance(node, ast.Attribute):
                    word = node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    word = node.value
                else:
                    continue
                refs.setdefault(word, []).append((path, node.lineno))
    return refs


@pytest.mark.parametrize("name", MODULES)
def test_every_export_is_used_by_the_program(name):
    path = ROOT / "src" / "sketchlab" / f"{name}.py"
    tree = ast.parse(path.read_text(), str(path))
    node = _all_assignment(tree)
    exported = [e.value for e in node.value.elts] if node else []
    spans = _definition_spans(tree)
    methods = [k for k in spans if k.partition(".")[0] in exported and "." in k]
    unused = []
    for n in exported + methods:
        lo, hi = spans.get(n, (0, -1))
        used = any(
            not (p == path and lo <= line <= hi)
            for p, line in _references().get(n.rpartition(".")[2], [])
        )
        if not used and f"{name}.{n}" not in TEST_ONLY:
            unused.append(n)
    assert unused == [], (
        "public names or methods with no caller in src/, scripts/ or benchmark/; "
        "delete them with their tests, or list them in TEST_ONLY with a reason"
    )


def test_test_only_names_are_exported():
    for key in TEST_ONLY:
        if "(" in key:
            continue
        module, _, n = key.partition(".")
        top, _, method = n.partition(".")
        mod = importlib.import_module(f"sketchlab.{module}")
        assert top in mod.__all__, key
        assert not method or method in vars(getattr(mod, top)), key


def _defaulted_parameters(
    tree: ast.Module, module: str
) -> dict[str, tuple[str, str, int | None]]:
    """`module.func(param)` for each defaulted parameter of a public
    function, method or constructor, with the name a call reaches it by
    and its position among the call's arguments (None if keyword-only)."""
    out = {}

    def add(fn: ast.FunctionDef, key: str, call: str, bound: int) -> None:
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, a in enumerate(positional[first:], first):
            out[f"{key}({a.arg})"] = (call, a.arg, i - bound)
        for a, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                out[f"{key}({a.arg})"] = (call, a.arg, None)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            add(node, f"{module}.{node.name}", node.name, 0)
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in item.decorator_list
                )
                if item.name == "__init__":
                    add(item, f"{module}.{node.name}", node.name, 1)
                elif not item.name.startswith("_"):
                    key = f"{module}.{node.name}.{item.name}"
                    add(item, key, item.name, 0 if static else 1)
    return out


@functools.cache
def _passed_arguments() -> dict[str, tuple[set[str | None], float]]:
    """For each called name in the program files, the keywords some call
    passes and the most positional arguments any call passes; a call
    that unpacks *args or **kwargs counts as passing everything."""
    passed: dict[str, tuple[set[str | None], float]] = {}
    for d in PROGRAM_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if isinstance(f, ast.Name):
                    name = f.id
                elif isinstance(f, ast.Attribute):
                    name = f.attr
                else:
                    continue
                keywords, most = passed.get(name, (set(), 0))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                passed[name] = (
                    keywords | {k.arg for k in node.keywords},  # None: **kwargs
                    max(most, math.inf if starred else len(node.args)),
                )
    return passed


@pytest.mark.parametrize("name", MODULES)
def test_every_default_is_passed_by_the_program(name):
    path = ROOT / "src" / "sketchlab" / f"{name}.py"
    tree = ast.parse(path.read_text(), str(path))
    unpassed = []
    for key, (call, param, position) in _defaulted_parameters(tree, name).items():
        keywords, most = _passed_arguments().get(call, (set(), 0))
        if param in keywords or None in keywords:
            continue
        if position is None or position >= most:
            unpassed.append(key)
    listed = [k for k in TEST_ONLY if k.startswith(f"{name}.") and "(" in k]
    assert sorted(set(unpassed) - set(TEST_ONLY)) == [], (
        "defaulted parameters that no call in src/, scripts/ or benchmark/ "
        "passes; make them constants, or list them in TEST_ONLY with a reason"
    )
    assert sorted(set(listed) - set(unpassed)) == [], (
        "TEST_ONLY parameters that the program passes or that no longer exist"
    )


def _is_dataclass(decorator: ast.expr) -> bool:
    call = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(call, ast.Name) and call.id == "dataclass"


@functools.cache
def _attribute_reads() -> frozenset[str]:
    """Every attribute name read in the program files and tests."""
    return frozenset(
        node.attr
        for d in PROGRAM_DIRS + ("tests",)
        for path in sorted((ROOT / d).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def test_every_dataclass_field_is_read():
    """A field read only by its own class's methods still counts: the
    value feeds something.  A field read nowhere is a second copy of a
    fact or no fact at all."""
    unread = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                map(_is_dataclass, node.decorator_list)
            ):
                unread.extend(
                    f"{node.name}.{item.target.id}"
                    for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and item.target.id not in _attribute_reads()
                )
    assert unread == [], (
        "dataclass fields that nothing in src/, scripts/, benchmark/ or tests/ "
        "reads as an attribute; delete them, or derive them where they are needed"
    )


GRID_LAYOUT = ("_grid_spectrum", "_half_spectrum_cells", "_law_key")


def test_grid_layout_stays_in_measure():
    """Outside measure.py, heavy grid frequencies are read through
    measure.heavy_cells: no program file imports or names the helpers
    that know the half-spectrum layout."""
    measure_py = ROOT / "src" / "sketchlab" / "measure.py"
    found = []
    for d in ("src", "scripts"):
        for path in sorted((ROOT / d).rglob("*.py")):
            if path == measure_py:
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.alias):
                    word = node.name
                elif isinstance(node, ast.Name):
                    word = node.id
                elif isinstance(node, ast.Attribute):
                    word = node.attr
                else:
                    continue
                if word in GRID_LAYOUT:
                    found.append(f"{path.relative_to(ROOT)}:{node.lineno} {word}")
    assert found == [], "grid layout helpers used outside measure.py"
