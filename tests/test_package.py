"""Package import: the one allocator setting every entry point gets."""

import os
import subprocess
import sys

import statenet

SRC = os.path.dirname(os.path.dirname(statenet.__file__))


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
