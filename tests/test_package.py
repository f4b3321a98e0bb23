"""The package's public namespace, as callers and the benchmark tracer see it."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import invinsert
from invinsert import cli


def test_all_names_resolve_once():
    names = invinsert.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(invinsert, name)]
    assert missing == []


def test_benchmark_tracer_runs(monkeypatch, capsys):
    # perfbench/tracing.py wraps every public function of the layer modules
    # and files each span under the module that defines it
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["compose", "--m", "2", "--k", "1", "--h", "2", "--all"])
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert code == 0
    assert metrics["synth.synthesize_s"] > 0 and metrics["synth.factor_calls"] == 1


@pytest.mark.parametrize(
    "package", ["scipy.optimize", "scipy.fft", "scipy.linalg", "multiprocessing", "concurrent.futures"]
)
def test_cli_import_leaves_out(package):
    # only the free-series LP needs scipy's HiGHS binding, and importing it
    # runs all of scipy.optimize; the transforms stay in numpy (scipy.fft
    # alone takes about 0.3 s to import); only `exact feasible --jobs` starts
    # a worker pool
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = f"import sys, invinsert.cli; print(sorted(m for m in sys.modules if m.startswith({package!r})))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_third_party_imports_are_declared():
    # the library's imports are dependencies; the suite's, in tests/ and
    # perfbench/, are dependencies or in the test extra
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")

    repo = Path(__file__).resolve().parents[1]
    with open(repo / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]

    def names(requirements):
        return {re.match(r"[\w.-]+", req).group().lower().replace("-", "_") for req in requirements}

    def third_party(paths):
        imported = set()
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
        # tomllib is stdlib from Python 3.11; tomli stands in before
        return imported - set(sys.stdlib_module_names) - {"tomllib", "invinsert"}

    declared = names(project["dependencies"])
    library = third_party((repo / "src" / "invinsert").glob("*.py"))
    assert library and library <= declared, sorted(library - declared)
    suite_modules = {
        "hilbert_testing", "exact_testing", "test_bounds", "test_synth", "checks", "tracing", "workloads",
    }
    suite = third_party([*(repo / "tests").glob("*.py"), *(repo / "perfbench").glob("*.py")]) - suite_modules
    declared |= names(project["optional-dependencies"]["test"])
    assert suite and suite <= declared, sorted(suite - declared)


def test_public_library_names_are_used_by_the_library():
    # a public function or class that only tests use is surface to delete;
    # cmd_* handlers are exempt, since main looks them up by name
    package = Path(invinsert.__file__).parent
    defined, used = {}, set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = sorted(
        f"{module}:{name}" for name, module in defined.items()
        if name not in used and not name.startswith("cmd_")
    )
    assert unused == []


def test_readme_library_quickstart_runs():
    # the README's API example, as a caller would paste it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "iv.synthesize_exact" in block
    exec(compile(block, "README.md", "exec"), {})
