"""``tools/unrun.py``'s allow-list: each line it excuses still holds the
text it names, and is a line the tool counts. The tracer itself is not
run here: it runs the whole suite."""

import os
import sys
from pathlib import Path


def test_each_allowed_line_still_holds_its_text(monkeypatch):
    tools = str(Path(__file__).parents[1] / "tools")
    monkeypatch.setattr(sys, "path", [tools, *sys.path])
    import unrun
    places = [(name, line) for name, line, _, _ in unrun.ALLOWED]
    assert len(set(places)) == len(places) == 14
    for name, line, text, reason in unrun.ALLOWED:
        path = os.path.join(unrun.PACKAGE, name)
        with open(path) as fh:
            assert fh.read().splitlines()[line - 1].strip() == text, (name, line)
        assert line in unrun.executable_lines(path), (name, line)
        assert reason
