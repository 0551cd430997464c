"""``tools/fixed_seed_digest.py``, the fixed-seed gate of a change that must
keep the program's bits: it runs quickly, repeats itself exactly, covers
both of the backward sweep's paths, and prints the pinned lines."""

import os
import sys
import time
from collections import Counter
from pathlib import Path


# the five lines that the tool prints; a change that moves one on purpose
# updates it here and says why
PINNED = [
    " ".join(["pavlov",
              "metrics.csv=8d0e5bd963a0b111b2a8e7ba481f6aab"
              "9788e14ade5c1f76d5f1b3b67aebdc1f",
              "epoch0001.ckpt=ab6343245700bcad46e686703c9b67a5"
              "db659d80dee8b049e07edddeceb2d0b2",
              "epoch0002.ckpt=b5ac82d1a825516048d75abd387bd7bb"
              "fe78a4afa500617b2ea62b08c5e91f33",
              "final.ckpt=b5ac82d1a825516048d75abd387bd7bb"
              "fe78a4afa500617b2ea62b08c5e91f33",
              "params=5403753f84602737bbfe45dfd7fffb9d"
              "fa30ecb78516817e5eb991c7e7e36dfc",
              "acquisition=d8445c8a1dddfbf8c9dd33d2524f3c71"
              "ed2fd8c4ee18239c80ce7a603a4d7b77"]),
    " ".join(["pong",
              "metrics.csv=78a184746ee3e45cfc4787d4dd20c83b"
              "8b8e0d1a9da80d932db7a00da0d58c32",
              "epoch0001.ckpt=0d7ff3100b848bada1d1b887053df8f0"
              "073b6bb47fa3d504169fdfb72733031d",
              "epoch0002.ckpt=4977f58b5d92bd340f8c8642f1a480f4"
              "7a2349267c67bb80c4f1add4ba7c812d",
              "final.ckpt=4977f58b5d92bd340f8c8642f1a480f4"
              "7a2349267c67bb80c4f1add4ba7c812d",
              "params=4b72609b817f0f8b3d2134f771598088"
              "785affb1f6c21e62b5c1a8700acafe76",
              "closed-loop=3d890dae264dfa8eefb61facf4c027ea"
              "816651201fea6e8bd36b20e8d326ed17"]),
    " ".join(["lif-stdp",
              "metrics.csv=d74cdbdd8fcaf61c2acbadbce509b5ab"
              "ab715163d1da5fbdc55615db9a6a1a68",
              "epoch0001.ckpt=d02f4d5bf0d828e0bac50864cab40347"
              "9c66e14a6c2ea7f782321b476979c5fe",
              "epoch0002.ckpt=3a718b6077cb4632de88e34aca7c3b35"
              "a4ee03149ce33af6282f2dd9da128a25",
              "final.ckpt=3a718b6077cb4632de88e34aca7c3b35"
              "a4ee03149ce33af6282f2dd9da128a25",
              "params=067444e8f875f574761e838caed1f2df"
              "9d762580560c9d8987f184059e01b66e",
              "acquisition=cc0c57e73988d3a50b9a031280fa3d0f"
              "b281c2d6368ee6a0f9147e772913862e"]),
    " ".join(["pong-3-7",
              "metrics.csv=d6153dd2a37342174a50f5591413879a"
              "13d85eb2bb1f14b806c43a05386917f2",
              "epoch0001.ckpt=5c08b43deafa51103ee22e93c04bcf0c"
              "433c78d714a868649818e71c9cd0672e",
              "epoch0002.ckpt=31d674f3e0684d8b4d2604858080c556"
              "4ddcdf320f6ad4d01b7e7fe6c68767be",
              "final.ckpt=31d674f3e0684d8b4d2604858080c556"
              "4ddcdf320f6ad4d01b7e7fe6c68767be",
              "params=b300cbd6f16208b1ccbe0ca85686d58f"
              "a5195e898576710219ce7a121e81e0e9",
              "closed-loop=652788f399da4164c377b5bbae347471"
              "49a7ad165fc193cdf2cd7df4a5936978"]),
    " ".join(["lif-stdp-3-7",
              "metrics.csv=810fa7bb7b3b829e88440fefbcc5f3f2"
              "f628f627aeb53f6a9be421d84d8148ff",
              "epoch0001.ckpt=feb6cff0409a0a647036777d103c9a71"
              "673d07f4ac57a629070d9cc4a46d47f6",
              "epoch0002.ckpt=d9e2077c34aa8d70ff08de3de56e319b"
              "ad51bb6924f28d22aee0d4cc13a8af44",
              "final.ckpt=d9e2077c34aa8d70ff08de3de56e319b"
              "ad51bb6924f28d22aee0d4cc13a8af44",
              "params=293d25b211b7b721be749644aee59064"
              "e19e7cfaac60f1f1f4b4940604fc3025",
              "acquisition=972e63fde758d2925c14e3de41d6f132"
              "9b363ad8e5049734c90d03933e7f6388"]),
]


def test_two_digests_in_one_process_agree(monkeypatch):
    # the tool puts src/ on sys.path; undo that afterwards
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


def test_digest_lines_are_pinned(monkeypatch):
    tools = str(Path(__file__).parents[1] / "tools")
    monkeypatch.setattr(sys, "path", [tools, *sys.path])
    import fixed_seed_digest
    assert fixed_seed_digest.digest_lines() == PINNED
