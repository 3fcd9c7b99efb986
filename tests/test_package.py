import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
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


def private_definitions(tree: ast.Module):
    """(name, statement) of every module-level function, class or constant
    whose name has one leading underscore."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            names = [node.name]
        elif isinstance(node, ast.Assign | ast.AnnAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def referenced_names(node: ast.AST) -> set[str]:
    """The names a statement reads: bare names, string annotations and
    ``__all__`` entries (``used_names``), attributes and imported names."""
    refs = used_names(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def test_no_unreferenced_private_definitions():
    # a private helper whose last caller was deleted would otherwise stay:
    # each must be read by some other module-level statement of the package
    src = Path(__file__).resolve().parent.parent / "src" / "ordview"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    refs = [(node, referenced_names(node)) for tree in trees.values() for node in tree.body]
    unread = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, definition in private_definitions(tree)
        if not any(name in names for node, names in refs if node is not definition)
    ]
    assert unread == []


# run in a fresh interpreter: the test session itself imports scipy, which
# the package lists only in its test extra
SCIPY_FREE_PROBE = textwrap.dedent(
    """
    import sys
    from pathlib import Path

    sys.modules["scipy"] = None  # any import of scipy now raises ImportError

    from ordview import cli, pipeline

    work = Path(sys.argv[1])
    pipeline.run_experiment(
        pipeline.ExperimentConfig(
            output_dir=work / "run", methods=("beta", "clm_beta"),
            views=("crown", "north"), n_seeds=2, tuning=True, epochs=2,
            synth=pipeline.SynthConfig(n_samples=60, n_features_per_view=3),
        )
    )
    args = ["stats", str(work / "run" / "grid.csv"), "--out", str(work / "reports")]
    assert cli.main(args) == 0
    loaded = [name for name in sys.modules if name.partition(".")[0] == "scipy"]
    assert loaded == ["scipy"] and sys.modules["scipy"] is None, loaded
    """
)


def run_probe(probe: str, *args: str) -> None:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe, *args],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_beta_methods_and_stats_run_without_scipy(tmp_path):
    # scipy is a test dependency only: the beta soft labels take their
    # incomplete beta from stats
    run_probe(SCIPY_FREE_PROBE, str(tmp_path))


NUMPY_MA_PROBE = textwrap.dedent(
    """
    import sys
    from pathlib import Path

    from ordview import pipeline

    pipeline.run_experiment(
        pipeline.ExperimentConfig(
            output_dir=Path(sys.argv[1]) / "run", methods=("sord",), views=("crown",),
            n_seeds=1, tuning=True, epochs=2,
            synth=pipeline.SynthConfig(n_samples=60, n_features_per_view=3),
        )
    )
    assert "numpy.ma" not in sys.modules
    """
)


def test_tuning_leaves_numpy_ma_unloaded(tmp_path):
    # importing numpy.ma costs a process ~17 ms, and no ordview code uses it
    run_probe(NUMPY_MA_PROBE, str(tmp_path))


SERIAL_SEEDS_PROBE = textwrap.dedent(
    """
    import sys
    from pathlib import Path

    from ordview import pipeline

    pipeline.run_experiment(
        pipeline.ExperimentConfig(
            output_dir=Path(sys.argv[1]) / "run", methods=("nominal",), views=("crown",),
            n_seeds=2, tuning=False, epochs=2,
            synth=pipeline.SynthConfig(n_samples=60, n_features_per_view=3),
        )
    )
    loaded = [name for name in ("concurrent.futures", "logging") if name in sys.modules]
    assert loaded == [], loaded
    """
)


def test_seeds_run_without_a_thread_pool(tmp_path):
    # seeds run in one serial loop, so no process loads concurrent.futures,
    # which would bring logging and queue along
    run_probe(SERIAL_SEEDS_PROBE, str(tmp_path))


RULE_PROBE = textwrap.dedent(
    """
    import sys

    opened = []
    sys.addaudithook(lambda event, args: event == "open" and opened.append(str(args[0])))

    import ordview.cli
    from ordview import stats

    def rule_reads():
        return [path for path in opened if path.endswith(stats._RULE_FILE)]

    assert rule_reads() == [], "import ordview.cli read the Gauss-Legendre rules"
    stats.studentized_range_cdf(3.0, 3, 10)
    assert len(rule_reads()) == 1
    """
)


def test_cli_import_reads_no_rule():
    # the rules are read on the first quadrature, which most commands never run
    run_probe(RULE_PROBE)
