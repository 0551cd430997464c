"""Lines of ``src/statenet`` that the tier-1 tests never run.

Runs the tier-1 suite in this process under a ``sys.settrace`` line tracer
that records only frames of ``src/statenet``, and takes each file's
executable lines from its code objects' ``co_lines()``. It prints every
executable line that no test ran and that ``ALLOWED`` does not list, with
its source text, then their count, and exits 1 if any is left (2 if the
suite itself fails). It uses the standard library only.

A line that only a subprocess runs (``python -m statenet.cli`` in a test)
shows as unrun: the tracer sees this process alone.

Run from the root of a source checkout (about two minutes):

    python3 tools/unrun.py
"""

from __future__ import annotations

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "statenet")

# (file under src/statenet, line, its stripped text, why tier-1 leaves it
# unrun); tests/test_unrun.py checks that each line still holds its text
ALLOWED = [
    ("__init__.py", 22, "except (OSError, AttributeError):",
     "the no-glibc branch: runs only where libc.so.6 cannot load"),
    ("__init__.py", 23, "return",
     "the no-glibc branch: runs only where libc.so.6 cannot load"),
    ("jsonio.py", 38, "except ImportError:",
     "the hashlib fallback: runs only on a Python without _sha2 or _sha256"),
    ("jsonio.py", 39, "from hashlib import sha256 as _sha256",
     "the hashlib fallback: runs only on a Python without _sha2 or _sha256"),
    ("cli.py", 276, "main()",
     "__main__: only the subprocess in tests/test_cli.py runs it"),
    ("verify.py", 80, "passed = False",
     "a FAIL reporter: only a broken gradient reaches it"),
    ("verify.py", 81, 'lines.append(f"FAIL net {i} (plastic={plastic}, T={T}, "',
     "a FAIL reporter: only a broken gradient reaches it"),
    ("verify.py", 82, 'f"loss={loss_tag}): worst error {net_worst:.3e}")',
     "a FAIL reporter: only a broken gradient reaches it"),
    ("verify.py", 135, "passed = False",
     "a FAIL reporter: only a broken oracle reaches it"),
    ("verify.py", 136, 'lines.append(f"FAIL case {i}: spike trains differ")',
     "a FAIL reporter: only a broken oracle reaches it"),
    ("verify.py", 227, "passed = False",
     "a FAIL reporter: only a non-causal rollout reaches it"),
    ("verify.py", 228, 'lines.append(f"FAIL causality pair {i}: prefix changed")',
     "a FAIL reporter: only a non-causal rollout reaches it"),
    ("verify.py", 231, "passed = False",
     "a FAIL reporter: only a non-deterministic rollout reaches it"),
    ("verify.py", 232,
     'lines.append(f"FAIL determinism pair {i}: repeat rollout differs")',
     "a FAIL reporter: only a non-deterministic rollout reaches it"),
]


def executable_lines(path: str) -> set[int]:
    """The lines of ``path`` that some instruction of its code maps to."""
    with open(path) as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args`` under the line tracer; its exit code and
    the lines run, per absolute file name of the package."""
    import pytest

    seen: dict[str, set[int]] = {}
    prefix = PACKAGE + os.sep

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = seen.setdefault(filename, set())

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines
        return trace_lines

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def main() -> int:
    os.chdir(ROOT)
    if "statenet" in sys.modules:
        raise SystemExit("statenet was imported before the tracer started")
    code, seen = run_traced(["-q", "-p", "no:cacheprovider"])
    if code != 0:
        print(f"tier-1 failed (pytest exit {code}): no line count")
        return 2
    allowed = {(name, line) for name, line, _, _ in ALLOWED}
    unrun = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            text = fh.read().splitlines()
        for line in sorted(executable_lines(path) - seen.get(path, set())):
            if (name, line) not in allowed:
                unrun.append(f"src/statenet/{name}:{line}: "
                             f"{text[line - 1].strip()}")
    for line in unrun:
        print(line)
    print(f"{len(unrun)} unrun lines in src/statenet outside the "
          f"{len(ALLOWED)}-line allow-list (lines that only a subprocess "
          f"runs show as unrun)")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main())
