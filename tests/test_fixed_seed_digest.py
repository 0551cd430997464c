"""``tools/fixed_seed_digest.py``, the fixed-seed gate of a change that must
keep the program's bits: it runs quickly and repeats itself exactly."""

import sys
import time
from pathlib import Path


def test_two_digests_in_one_process_agree(monkeypatch):
    # the tool puts src/ and perfbench/ on sys.path; undo that afterwards
    tools = str(Path(__file__).parents[1] / "tools")
    monkeypatch.setattr(sys, "path", [tools, *sys.path])
    import fixed_seed_digest
    began = time.perf_counter()
    first = fixed_seed_digest.digest_lines()
    second = fixed_seed_digest.digest_lines()
    assert time.perf_counter() - began < 5.0
    assert first == second
    assert [line.split()[0] for line in first] == ["pavlov", "pong", "lif-stdp",
                                                 "pong-3-7"]
    for line in first:
        files = [field.split("=")[0] for field in line.split()[1:]]
        # the runs with a held-out set also hash its breakdown rows, the
        # pong runs their closed-loop outcome
        name = line.split()[0]
        extra = ["acquisition"] if name in ("pavlov", "lif-stdp") else \
            ["closed-loop"]
        assert files == ["metrics.csv", "epoch0001.ckpt", "epoch0002.ckpt",
                         "final.ckpt", *extra]
