"""Golden digests of every CLI output.

Each command runs in a temporary directory with relative paths, because
CSV headers record the path flags.  The SHA-256 of every file it writes
(and of one stdout run) is pinned, so a refactor of the CLI or of the
code under it must keep every output byte for byte.  The digests pin the
float64 bits of numpy 2.4 on x86-64 with OpenBLAS's GOLDEN_KERNEL; another
kernel may move last digits, and a failure names both kernels.
"""

import hashlib

from oracles import blas_core

from toydiff.cli import run_cli

TRAIN = ["--desk", "--steps", "60", "--hidden", "8"]
# (argv, files it writes); later commands read the checkpoints of earlier ones
COMMANDS = [
    (["train", "--seed", "11", *TRAIN, "--out", "m.ckpt", "--loss-csv", "loss.csv"],
     ["m.ckpt", "loss.csv"]),
    (["train", "--seed", "12", *TRAIN, "--conditional", "--out", "cond.ckpt"], ["cond.ckpt"]),
    (["train", "--seed", "13", *TRAIN, "--classifier", "--out", "cls.ckpt"], ["cls.ckpt"]),
    (["sample", "--seed", "5", "--checkpoint", "m.ckpt", "--n", "25", "--out", "ddpm.csv"],
     ["ddpm.csv"]),
    (["sample", "--seed", "5", "--checkpoint", "m.ckpt", "--n", "25", "--sampler", "ddim",
      "--sigma", "zero", "--out", "ddim0.csv"], ["ddim0.csv"]),
    (["sample", "--seed", "5", "--checkpoint", "m.ckpt", "--n", "25", "--sampler", "ddim",
      "--sigma", "ddpm", "--out", "ddimd.csv"], ["ddimd.csv"]),
    (["sample", "--seed", "6", "--checkpoint", "cond.ckpt", "--n", "25", "--label", "1",
      "--out", "label.csv"], ["label.csv"]),
    (["sample", "--seed", "7", "--checkpoint", "cond.ckpt", "--n", "25", "--guidance", "cfg",
      "--label", "0", "--scale", "2", "--out", "cfg.csv"], ["cfg.csv"]),
    (["sample", "--seed", "8", "--checkpoint", "m.ckpt", "--n", "25", "--guidance",
      "classifier", "--classifier", "cls.ckpt", "--label", "1", "--scale", "1.5",
      "--out", "clsg.csv"], ["clsg.csv"]),
    (["forward", "--seed", "2", "--desk", "--x0", "1.0,-0.5", "--n", "3", "--out", "fwd.csv"],
     ["fwd.csv"]),
    (["vlb", "--seed", "4", "--checkpoint", "m.ckpt", "--x0", "0.5", "--M", "2",
      "--out", "vlb.csv"], ["vlb.csv"]),
    (["kl-demo", "--seed", "1", "--q", "1,1", "--p", "0,4", "--M", "2000", "--out", "kl.csv"],
     ["kl.csv"]),
    (["reparam-demo", "--seed", "1", "--theta", "0.5,1.5", "--M", "2000", "--out", "rp.csv"],
     ["rp.csv"]),
    (["hist", "--seed", "0", "--input", "ddpm.csv", "--bins", "10", "--out", "hist.csv"],
     ["hist.csv"]),
]
STDOUT_RUN = ["vlb", "--seed", "4", "--checkpoint", "m.ckpt", "--x0", "-0.25"]

GOLDEN_KERNEL = "SkylakeX"  # the OpenBLAS kernel (oracles.blas_core) the digests were made on
GOLDEN = {
    "m.ckpt": "430696357f5f7b9ef340d3dae5776ea257e6f619c64e978bfe3505197e152b92",
    "loss.csv": "28e39e214cbb8916b13de8ba254b13b16d754a974ce9763193d860ba3fbc22f3",
    "cond.ckpt": "7e45260cf304ba52a5816e8ab1059903f67a4c60108112edf933b54beb2bee7b",
    "cls.ckpt": "62ff7be25d3878b9e13e5302e438bb20cceca5f8bae3011b7766b730e76d65a3",
    "ddpm.csv": "768ed29bf94f82d37ae656373bf43646c9cfae57c2c969123d7fd60ecbee4b84",
    "ddim0.csv": "5f93d122d8a429508c499ef501b5fc6566d3de4c327b37c0546fba27dd48e04a",
    "ddimd.csv": "3515dec6b6a82b3a9d8f1cb9973ecb62d3ccefb83db403c09e918a71890f5aef",
    "label.csv": "04d43fe57fb9919fd2bc623114cf68a795d66c0da6c4bdda5002b0f3e0b1aa6d",
    "cfg.csv": "416e282395627778822981de7ca8b0ee2f79ef1c7c5b24f6baa1b8b895940ebc",
    "clsg.csv": "0c2dea94b69c4fea917f3c3e9422ed2fe7349f654028561c66d0b2190bfa9c75",
    "fwd.csv": "b143d87c96bfbff84ecd15b18d09786645b9b1a6e45e6c28a231713057c44781",
    "vlb.csv": "7f0dbe5ab049221370d40037df062a64452ff9b6b4eb5df902eeece6f505cd0d",
    "kl.csv": "9b44deb3017b4b0b83749e9e901b3171ce06aec21e127ee635f0f673e4b7aa57",
    "rp.csv": "117bf90535d26ca02f026405ef363ecdf278ce7f682c91393afb49708b04a855",
    "hist.csv": "23868b8da7fd0423dcf7e8dff87eb037be51f36205396da8acfd91c95d51cfb7",
    "stdout": "054d20243050f6491a6ee0d0edcbb765a50b08e3fc45161112f720f411831982",
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def test_cli_outputs_match_golden_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digests = {}
    for argv, outputs in COMMANDS:
        assert run_cli(argv) == 0, argv
        digests.update({name: _sha((tmp_path / name).read_bytes()) for name in outputs})
    capsys.readouterr()
    assert run_cli(STDOUT_RUN) == 0
    digests["stdout"] = _sha(capsys.readouterr().out.encode())
    assert digests == GOLDEN, \
        f"digests made on BLAS kernel {GOLDEN_KERNEL}, run on {blas_core()}"


def test_ddim_with_the_ddpm_sigma_writes_the_ddpm_rows(tmp_path, monkeypatch):
    # only the header lines, which record the flags, tell ddimd.csv from ddpm.csv
    monkeypatch.chdir(tmp_path)
    for argv, outputs in COMMANDS:
        if outputs[0] in ("m.ckpt", "ddpm.csv", "ddimd.csv"):
            assert run_cli(argv) == 0, argv
    ddpm, ddimd = ([line for line in (tmp_path / name).read_text().splitlines()
                    if not line.startswith("#")] for name in ("ddpm.csv", "ddimd.csv"))
    assert len(ddpm) == 26 and ddpm == ddimd
