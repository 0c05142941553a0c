"""Property-based fuzz of the CLI: any argv made of its own flags exits 0, 1 or 2.

The argv lists are built from build_parser()'s subparser actions, so
every flag of every subcommand is fuzzed; a new flag needs only a valid
value in _valid.  Each flag takes its valid value, and at most one flag
of an argv takes a mangled one (empty, NaN, negative, zero, the wrong
length, a missing file, a truncated checkpoint, a checkpoint of the
other kind).
Every count stays at 5 or below and train always runs at most 3 steps
of a network whose widths are 4 or less (a mangled --hidden fails to parse
or gives widths of at most 3), so the whole test takes about a second.
"""

import argparse
import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toydiff.cli import build_parser, run_cli

SUBPARSERS = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)).choices
ALWAYS = {"--steps", "--n", "--M", "--bins", "--hidden"}
OUTPUTS = {"--out", "--loss-csv"}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    noise, cls, samples = d / "noise.ckpt", d / "cls.ckpt", d / "samples.csv"
    train = ["train", "--seed", "0", "--desk", "--T", "10", "--steps", "3", "--hidden", "4"]
    assert run_cli(train + ["--conditional", "--out", str(noise)]) == 0
    assert run_cli(train + ["--classifier", "--out", str(cls)]) == 0
    assert run_cli(["sample", "--seed", "0", "--checkpoint", str(noise), "--n", "5",
                    "--out", str(samples)]) == 0
    truncated = d / "truncated.ckpt"
    truncated.write_text(noise.read_text()[:300])
    config = d / "train.cfg"
    config.write_text("T=10\nbeta-start=0.001\n")
    return {"dir": d, "noise": str(noise), "cls": str(cls), "samples": str(samples),
            "truncated": str(truncated), "config": str(config),
            "missing": str(d / "no" / "such.file")}


def _valid(action, f):
    """The values the flag accepts."""
    flag = action.option_strings[0]
    if action.choices:
        return list(action.choices)
    paths = {"--checkpoint": f["noise"], "--classifier": f["cls"], "--input": f["samples"],
             "--config": f["config"], "--out": "out", "--loss-csv": "loss.csv"}
    values = {"--seed": "0", "--T": "10", "--hidden": "4", "--beta-start": "0.001", "--beta-end": "0.2",
              "--offset": "0.008", "--steps": "3", "--batch": "5", "--eta": "0.01",
              "--p-drop": "0.1", "--n": "5", "--M": "5", "--bins": "5", "--label": "1",
              "--scale": "1.5", "--x0": "0.5", "--q": "1,1", "--p": "0,4",
              "--theta": "0.5,1.5"}
    return [paths.get(flag) or values[flag]]


def _mangled(action, f):
    """The bad values drawn for one flag."""
    flag = action.option_strings[0]
    values = ["", "nan", "-1", "0", "1,2,3", f["missing"]]
    if flag not in OUTPUTS:  # never write over a fixture
        values += [f["truncated"], f["noise"] if flag == "--classifier" else f["cls"]]
    return values


@st.composite
def argvs(draw, f):
    """One subcommand with a random set of its flags, at most one of them mangled."""
    command = draw(st.sampled_from(sorted(SUBPARSERS)))
    actions = [a for a in SUBPARSERS[command]._actions if a.option_strings and a.dest != "help"]
    kept = [a for a in actions if a.required or a.option_strings[0] in ALWAYS
            or draw(st.booleans())]
    bad = draw(st.sampled_from([None] + [a for a in kept if a.nargs != 0]))
    argv = [command]
    for a in kept:
        argv.append(a.option_strings[0])
        if a.nargs != 0:  # not a store_true switch
            pool = _mangled(a, f) if a is bad else _valid(a, f)
            argv.append(draw(st.sampled_from(pool)))
    return argv


def test_cli_fuzz_exits_0_1_or_2(files):
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(argvs(files))
    def run(argv):
        err, cwd = io.StringIO(), os.getcwd()
        with tempfile.TemporaryDirectory(dir=files["dir"]) as d, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            os.chdir(d)   # relative --out values land in a fresh directory
            try:
                code = run_cli(argv)   # an escaping exception fails the example
            finally:
                os.chdir(cwd)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv

    run()
