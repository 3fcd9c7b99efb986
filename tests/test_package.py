import ast
import importlib
import pkgutil
from pathlib import Path

import ordview


def test_all_names_resolve():
    # a stale __all__ entry breaks ``from ordview.<module> import *``
    names = ["ordview"] + [
        f"ordview.{info.name}" for info in pkgutil.iter_modules(ordview.__path__)
    ]
    stale = []
    for module_name in names:
        module = importlib.import_module(module_name)
        stale += [
            f"{module_name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert stale == []


def imported_names(tree: ast.Module):
    """(name, line) of every name an import statement binds, save
    ``__future__`` features and star imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def used_names(tree: ast.Module) -> set[str]:
    """Every name read anywhere in the module, counting the names inside
    string annotations and the entries of ``__all__`` (re-exports)."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg | ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            annotations.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def test_no_unused_imports():
    # no linter runs in the test suite, so an import left behind by a
    # deletion would otherwise stay
    root = Path(__file__).resolve().parent.parent
    unused = []
    for path in sorted([*root.glob("src/**/*.py"), *root.glob("tests/**/*.py")]):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = used_names(tree)
        unused += [
            f"{path.relative_to(root)}:{line}: {name}"
            for name, line in imported_names(tree)
            if name not in used
        ]
    assert unused == []
