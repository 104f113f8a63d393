"""Documentation contract: every public item carries a docstring.

Walks the whole ``repro`` package and asserts that modules, public
classes, public functions and public methods are documented — the
deliverable is a library someone else can adopt, and this test keeps the
bar from silently eroding.
"""

import ast
import importlib
import inspect
import pkgutil
import re

import pytest

import repro


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        yield importlib.import_module(info.name)


MODULES = list(_walk_modules())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_documented(module):
    assert module.__doc__ and module.__doc__.strip(), f"{module.__name__} lacks a docstring"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_items_documented(module):
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; documented at home
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(name)
            continue
        if inspect.isclass(obj):
            for m_name, member in vars(obj).items():
                if m_name.startswith("_") or not inspect.isfunction(member):
                    continue
                if not (member.__doc__ and member.__doc__.strip()):
                    undocumented.append(f"{name}.{m_name}")
    assert not undocumented, (
        f"{module.__name__}: undocumented public items: {undocumented}"
    )


def _unused_imports(source: str) -> list[str]:
    """Names a module imports at top level and never uses (ruff's F401).

    A name counts as used when it is read anywhere in the module, listed
    in ``__all__`` or spelled inside a string annotation; imports under
    ``if TYPE_CHECKING:`` are not top-level statements and ``# noqa``
    lines are skipped.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = set()
    quoted = []  # subtrees whose string constants name things
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign):
            if any(getattr(target, "id", None) == "__all__" for target in node.targets):
                quoted.append(node.value)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            quoted.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            quoted.append(node.returns)
    for root in filter(None, quoted):
        for node in ast.walk(root):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "module",
    [m for m in MODULES if not m.__file__.endswith("__init__.py")],
    ids=lambda m: m.__name__,
)
def test_no_unused_imports(module):
    """The rule family CI's ``ruff check`` (F401) enforces, run where the
    tools are not installed; ``__init__.py`` re-exports are exempt."""
    with open(module.__file__, encoding="utf-8") as fh:
        unused = _unused_imports(fh.read())
    assert not unused, f"{module.__name__}: unused imports: {unused}"
