"""Package import: the one allocator setting every entry point gets; no
module of the package, its tests or its tools imports a name it never
uses; and none of them but the benchmark's own test imports the
benchmark."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import statenet

SRC = os.path.dirname(os.path.dirname(statenet.__file__))
ROOT = Path(__file__).resolve().parent.parent


def run_import(prelude: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", prelude + "import statenet\n"
                           "print(statenet.__version__)\n"],
                          env=env, capture_output=True, text=True, timeout=60)


def test_import_sets_the_heap_thresholds_once():
    proc = run_import(
        "import ctypes, types\n"
        "class Mallopt:\n"
        "    def __call__(self, param, value):\n"
        "        print('mallopt', param, value)\n"
        "        return 1\n"
        "ctypes.CDLL = lambda name: types.SimpleNamespace(mallopt=Mallopt())\n")
    assert proc.returncode == 0, proc.stderr
    # M_MMAP_THRESHOLD (-3) at 8 MiB, M_TRIM_THRESHOLD (-1) at 64 MiB
    assert proc.stdout.splitlines() == [
        f"mallopt -3 {8 << 20}", f"mallopt -1 {64 << 20}", statenet.__version__]


def test_import_without_glibc_succeeds():
    proc = run_import(
        "import ctypes\n"
        "def missing(name):\n"
        "    raise OSError(name + ': cannot open shared object file')\n"
        "ctypes.CDLL = missing\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [statenet.__version__]
    assert proc.stderr == ""


def unused_imports(path: Path) -> list[str]:
    """``line: name`` of each name that ``path`` imports and never reads
    as a plain name (``ast.Name``); ``__future__`` imports aside."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        unused += [f"{node.lineno}: {name}" for name in names
                   if name not in used]
    return unused


def package_modules() -> list[Path]:
    """Every module of the package, its tests and its tools."""
    modules = []
    for sub in ("src/statenet", "tests", "tools"):
        found = sorted((ROOT / sub).rglob("*.py"))
        assert found, sub
        modules += found
    return modules


def test_no_module_imports_a_name_it_never_uses():
    found = {str(path.relative_to(ROOT)): unused_imports(path)
             for path in package_modules()}
    assert {path: names for path, names in found.items() if names} == {}


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the modules that ``path`` imports absolutely."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_the_benchmark_test_imports_the_benchmark():
    # the package owns its recipes and tools; the benchmark's modules are
    # its own, imported only where its bindings are tested
    bench = {path.stem for path in (ROOT / "perfbench").glob("*.py")}
    assert bench
    found = {str(path.relative_to(ROOT)): imported_modules(path) & bench
             for path in package_modules()
             if path != ROOT / "tests" / "test_perfbench.py"}
    assert {path: names for path, names in found.items() if names} == {}
