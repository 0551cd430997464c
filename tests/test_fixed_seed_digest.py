"""``tools/fixed_seed_digest.py``, the fixed-seed gate of a change that must
keep the program's bits: it runs quickly, repeats itself exactly, and
covers both of the backward sweep's paths."""

import os
import sys
import time
from collections import Counter
from pathlib import Path


def test_two_digests_in_one_process_agree(monkeypatch):
    # the tool puts src/ and perfbench/ on sys.path; undo that afterwards
    tools = str(Path(__file__).parents[1] / "tools")
    monkeypatch.setattr(sys, "path", [tools, *sys.path])
    import fixed_seed_digest
    from statenet import autodiff, training
    began = time.perf_counter()
    first = fixed_seed_digest.digest_lines()

    # count, per run, the stacked tapes and the tapes swept (lone or
    # stacked) of the second digest
    run, stacks, sweeps = [None], Counter(), Counter()
    train, stack, backward = (training.train, autodiff._stacked_tape,
                              autodiff.backward)

    def naming_train(*args, run_dir, **kwargs):
        run[0] = os.path.basename(run_dir)
        return train(*args, run_dir=run_dir, **kwargs)

    def counting_stack(tapes):
        stacks[run[0]] += 1
        return stack(tapes)

    def counting_backward(tape):
        sweeps[run[0]] += 1
        return backward(tape)

    monkeypatch.setattr(training, "train", naming_train)
    monkeypatch.setattr(autodiff, "_stacked_tape", counting_stack)
    monkeypatch.setattr(autodiff, "backward", counting_backward)
    second = fixed_seed_digest.digest_lines()
    assert time.perf_counter() - began < 5.0
    assert first == second
    assert [line.split()[0] for line in first] == [
        "pavlov", "pong", "lif-stdp", "pong-3-7", "lif-stdp-3-7"]
    for line in first:
        files = [field.split("=")[0] for field in line.split()[1:]]
        # every run hashes its trained parameters; the runs with a held-out
        # set also hash its breakdown rows, the pong runs their closed-loop
        # outcome
        name = line.split()[0]
        extra = ["closed-loop"] if name.startswith("pong") else \
            ["acquisition"]
        assert files == ["metrics.csv", "epoch0001.ckpt", "epoch0002.ckpt",
                         "final.ckpt", "params", *extra]
    # the full-window runs sweep lone tapes only; the truncated runs stack,
    # the spiking one too
    for name in ("pavlov", "lif-stdp"):
        assert stacks[name] == 0 and sweeps[name] > 0
    for name in ("pong", "pong-3-7", "lif-stdp-3-7"):
        assert 0 < stacks[name] <= sweeps[name]
