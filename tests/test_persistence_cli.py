import functools
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import toydiff
from toydiff import cli, schedules
from toydiff.cli import run_cli
from toydiff.model import init_classifier, init_noise_predictor
from toydiff.persistence import load_checkpoint, save_checkpoint, write_csv
from toydiff.rng import RngState
from toydiff.schedules import make_cosine_schedule, make_linear_schedule
from toydiff.training import TrainConfig

SCHED = make_linear_schedule(10, 1e-3, 0.2)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    m = init_noise_predictor(1, hidden=(8, 4), conditioning=2, rng=RngState(0))
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, SCHED, path, seed_note="seed=0")
    m2, s2 = load_checkpoint(path)
    assert np.array_equal(m.params, m2.params)
    assert m2.hidden == (8, 4) and m2.conditioning == 2
    assert s2.T == SCHED.T and np.array_equal(
        s2.beta[1:], SCHED.beta[1:]) and s2.kind == "linear"
    x = np.array([[0.37]])
    assert np.array_equal(m.predict(x, 5, 1, SCHED), m2.predict(x, 5, 1, s2))


@pytest.mark.parametrize("sched", [SCHED, make_linear_schedule(7), make_cosine_schedule(12),
                                   make_cosine_schedule(5, 0.1)],
                         ids=["linear-10", "linear-7", "cosine-12", "cosine-5"])
def test_checkpoint_round_trip_schedule_is_equal(tmp_path, sched):
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_noise_predictor(1, hidden=(4,), rng=RngState(0)), sched, path)
    s2 = load_checkpoint(path)[1]
    assert s2 == sched and s2.args == sched.args and s2.kind == sched.kind
    assert np.array_equal(s2.alpha_bar, sched.alpha_bar)


def test_load_checkpoint_builds_through_the_constructor_bound_now(tmp_path, monkeypatch):
    # a tracer rebinds schedules.make_<kind>_schedule; the load must call the rebound one
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_noise_predictor(1, hidden=(4,), rng=RngState(0)), SCHED, path)
    calls = []

    @functools.wraps(schedules.make_linear_schedule)
    def traced(*args, **kwargs):
        calls.append((args, kwargs))
        return traced.__wrapped__(*args, **kwargs)

    monkeypatch.setattr(schedules, "make_linear_schedule", traced)
    assert load_checkpoint(path)[1] == SCHED
    assert calls == [((10,), {"beta_start": 1e-3, "beta_end": 0.2})]


def test_checkpoint_save_load_save_byte_identical(tmp_path):
    m = init_noise_predictor(2, hidden=(5,), rng=RngState(1))
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(m, SCHED, p1, seed_note="seed=1")
    m2, s2 = load_checkpoint(p1)
    save_checkpoint(m2, s2, p2, seed_note="seed=1")
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_cosine_schedule_round_trip(tmp_path):
    s = make_cosine_schedule(12, 0.008)
    m = init_noise_predictor(1, hidden=(4,), rng=RngState(2))
    path = tmp_path / "c.ckpt"
    save_checkpoint(m, s, path)
    _, s2 = load_checkpoint(path)
    assert np.array_equal(s.beta[1:], s2.beta[1:])


def test_classifier_checkpoint_round_trip(tmp_path):
    c = init_classifier(1, 2, hidden=(6,), rng=RngState(3))
    path = tmp_path / "cls.ckpt"
    save_checkpoint(c, SCHED, path)
    c2, _ = load_checkpoint(path)
    assert np.array_equal(c.params, c2.params)
    assert c2.n_classes == 2


def test_checkpoint_truncation_reports_line(tmp_path):
    m = init_noise_predictor(1, hidden=(4,), rng=RngState(4))
    path = tmp_path / "t.ckpt"
    save_checkpoint(m, SCHED, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("good, bad", [("last", "not-a-number"), ("data_dim=1", "data_dim 1")],
                         ids=["parameter", "header"])  # a header line without '='
def test_checkpoint_bad_line_reports_position(tmp_path, good, bad):
    m = init_noise_predictor(1, hidden=(4,), rng=RngState(5))
    path = tmp_path / "b.ckpt"
    save_checkpoint(m, SCHED, path)
    lines = path.read_text().splitlines()
    i = len(lines) - 1 if good == "last" else lines.index(good)
    lines[i] = bad
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as e:
        load_checkpoint(path)
    assert str(e.value) == f"checkpoint parse error at line {i + 1}: {bad!r}"


def test_checkpoint_version_check(tmp_path):
    m = init_noise_predictor(1, hidden=(4,), rng=RngState(6))
    path = tmp_path / "v.ckpt"
    save_checkpoint(m, SCHED, path)
    path.write_text(path.read_text().replace("version=1", "version=99"))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_write_csv_format():
    buf = io.StringIO()
    write_csv(buf, ["a", "b"], [(1, 0.5), (2, 1.0 / 3.0)], {"seed": 7})
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# seed=7"
    assert lines[1] == "a,b"
    assert lines[2].startswith("1,0.5")
    assert float(lines[3].split(",")[1]) == 1.0 / 3.0  # 17 digits round-trip


# ---------------------------------------------------------------- CLI

def run2(argv):
    return run_cli([str(a) for a in argv])


def test_cli_requires_seed(tmp_path, capsys):
    assert run2(["train", "--out", tmp_path / "x.ckpt"]) == 1
    assert "usage" in capsys.readouterr().err


def test_cli_module_entry_point_exit_1_without_arguments():
    src = os.path.dirname(os.path.dirname(os.path.abspath(toydiff.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "toydiff.cli"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "usage" in proc.stderr and "Traceback" not in proc.stderr


def test_cli_unknown_flag_exit_1(capsys):
    assert run2(["kl-demo", "--seed", 0, "--q", "1,1", "--p", "0,4",
                 "--bogus"]) == 1


def test_cli_domain_error_exit_2(tmp_path, capsys):
    # invalid schedule parameters are a domain error, not a usage error
    assert run2(["forward", "--seed", 0, "--x0", "1.0", "--T", 5,
                 "--beta-start", "0.9", "--beta-end", "0.1",
                 "--out", tmp_path / "f.csv"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_train_on_an_underflowing_schedule_exits_2_before_writing(tmp_path, capsys):
    # alpha_bar underflows at T = 100000; load_checkpoint would reject the file
    out = tmp_path / "m.ckpt"
    assert run2(["train", "--seed", 0, "--T", 100000, "--steps", 1, "--hidden", 4,
                 "--out", out]) == 2
    assert "alpha_bar" in capsys.readouterr().err
    assert not out.exists()


def test_cli_missing_checkpoint_exit_2(tmp_path, capsys):
    assert run2(["sample", "--seed", 0, "--checkpoint", tmp_path / "no.ckpt",
                 "--out", tmp_path / "s.csv"]) == 2


@pytest.mark.parametrize("line, edited, message", [
    ("kind=noise_predictor", "kind=bogus", "unknown checkpoint kind: bogus"),
    ("skip=1", "skip=0", "unsupported checkpoint skip=0"),
    ("skip=1", None, "missing the key 'skip'"),
    ("version=1", None, "missing the key 'version'"),
], ids=["kind=bogus", "skip=0", "no-skip-line", "no-version-line"])
def test_checkpoint_of_unknown_kind_is_rejected(tmp_path, capsys, line, edited, message):
    path = tmp_path / "k.ckpt"
    save_checkpoint(init_noise_predictor(1, hidden=(4,), rng=RngState(6)), SCHED, path)
    text = path.read_text()
    assert f"\n{line}\n" in text
    path.write_text(text.replace(f"\n{line}\n", "\n" if edited is None else f"\n{edited}\n"))
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)
    out = tmp_path / "s.csv"
    assert run2(["sample", "--seed", 0, "--checkpoint", path, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, bad, named", [
    ("version", "1.0", "1.0"), ("n_params", "x29", "x29"), ("schedule_T", "ten", "ten"),
    ("data_dim", "one", "one"), ("hidden", "4,a", "a"), ("n_classes", "two", "two"),
    ("conditioning", "2.5", "2.5"),
])
def test_checkpoint_non_integer_header_names_its_key_and_value(tmp_path, capsys, key, bad, named):
    net = (init_classifier(1, 2, hidden=(4,), rng=RngState(6)) if key == "n_classes"
           else init_noise_predictor(1, hidden=(4,), conditioning=2, rng=RngState(6)))
    _assert_bad_header(tmp_path, capsys, net, SCHED, key, bad,
                       f"checkpoint {key}={named!r}: not an integer")


@pytest.mark.parametrize("key, sched", [
    ("schedule_beta_start", SCHED), ("schedule_beta_end", SCHED),
    ("schedule_offset", make_cosine_schedule(10)),
])
def test_checkpoint_non_float_schedule_argument_names_its_key_and_value(tmp_path, capsys,
                                                                       key, sched):
    # float() alone used to report only "could not convert string to float: 'abc'"
    net = init_noise_predictor(1, hidden=(4,), rng=RngState(6))
    _assert_bad_header(tmp_path, capsys, net, sched, key, "abc",
                       f"checkpoint {key}='abc': not a float")


def _assert_bad_header(tmp_path, capsys, net, sched, key, bad, message):
    """load_checkpoint and vlb on a checkpoint of net whose key line reads key=bad both
    fail with message, and vlb writes nothing."""
    path = tmp_path / "h.ckpt"
    save_checkpoint(net, sched, path)
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(f"{key}="))
    lines[i] = f"{key}={bad}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as e:
        load_checkpoint(path)
    assert str(e.value) == message
    out = tmp_path / "v.csv"
    assert run2(["vlb", "--seed", 0, "--checkpoint", path, "--x0", 0.5, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def train_small(tmp_path, name, extra=()):
    out = tmp_path / name
    rc = run2(["train", "--seed", 11, "--desk", "--steps", 50,
               "--hidden", "8", "--out", out, *extra])
    assert rc == 0
    return out


def test_cli_train_rerun_byte_identical(tmp_path):
    a = train_small(tmp_path, "a.ckpt")
    b = train_small(tmp_path, "b.ckpt")
    assert a.read_bytes() == b.read_bytes()


def test_cli_train_zero_steps_equals_init(tmp_path):
    out, loss = tmp_path / "init.ckpt", tmp_path / "loss.csv"
    assert run2(["train", "--seed", 3, "--desk", "--steps", 0,
                 "--hidden", "8", "--out", out, "--loss-csv", loss]) == 0
    m, _ = load_checkpoint(out)
    fresh = init_noise_predictor(1, hidden=(8,), rng=RngState(3).spawn(1))
    assert np.array_equal(m.params, fresh.params)
    # no step, no loss row: only the header (a 0-step run used to write 0,nan)
    assert [l for l in loss.read_text().splitlines() if not l.startswith("#")] == ["step,loss"]


def checkpoint_meta(path):
    return dict(l.split("=", 1) for l in path.read_text().splitlines()
                if l.startswith("schedule_"))


def test_cli_train_desk_selects_desk_betas(tmp_path):
    # the CLI sets only T (and the desk betas); the schedule constructors supply the rest
    for flags, kind, expected in [
            ([], "linear", {"T": 1000, "beta_start": 1e-4, "beta_end": 0.02}),
            (["--desk"], "linear", {"T": 100, "beta_start": 1e-3, "beta_end": 0.2}),
            (["--schedule", "cosine"], "cosine", {"T": 1000, "offset": 0.008}),
            (["--desk", "--schedule", "cosine"], "cosine", {"T": 100, "offset": 0.008})]:
        out = tmp_path / "profile.ckpt"
        assert run2(["train", "--seed", 0, "--steps", 0, *flags, "--out", out]) == 0
        meta = checkpoint_meta(out)
        assert meta.pop("schedule_kind") == kind
        assert {k[len("schedule_"):]: float(v) for k, v in meta.items()} == expected
    meta = checkpoint_meta(train_small(tmp_path, "desk.ckpt"))
    assert (meta["schedule_T"], float(meta["schedule_beta_start"]),
            float(meta["schedule_beta_end"])) == ("100", 1e-3, 0.2)
    # flags and the config file still override the desk betas
    cfgf = tmp_path / "cfg"
    cfgf.write_text("beta-end=0.05\n")
    meta = checkpoint_meta(train_small(tmp_path, "over.ckpt", [
        "--beta-start", "0.002", "--config", cfgf]))
    assert (float(meta["schedule_beta_start"]),
            float(meta["schedule_beta_end"])) == (0.002, 0.05)


def test_cli_train_without_training_flags_uses_library_defaults(tmp_path, monkeypatch):
    seen = []
    for name in ("train", "train_classifier"):
        monkeypatch.setattr(cli.training, name, lambda m, d, s, cfg, rng: seen.append((m, cfg)))
    for flags in ([], ["--classifier"]):
        assert run2(["train", "--seed", 0, "--desk", *flags, "--out", tmp_path / "m.ckpt"]) == 0
    assert [(m.hidden, cfg) for m, cfg in seen] == [((64, 64), TrainConfig())] * 2


def test_cli_sample_rerun_byte_identical(tmp_path):
    ckpt = train_small(tmp_path, "m.ckpt")
    cls = train_small(tmp_path, "cls.ckpt", ["--classifier"])
    out = tmp_path / "s.csv"
    for flags in ([], ["--guidance", "classifier", "--classifier", cls, "--label", 1,
                       "--scale", 2]):
        outs = []
        for _ in range(2):  # identical command rerun, same output path
            assert run2(["sample", "--seed", 5, "--checkpoint", ckpt,
                         "--sampler", "ddim", "--sigma", "zero", "--n", 20, *flags,
                         "--out", out]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_cli_sample_accepts_the_default_scale_and_sigma_given_explicitly(tmp_path):
    # --scale 0 and --sigma zero are the defaults, so giving them changes nothing
    ckpt, out = train_small(tmp_path, "m.ckpt"), tmp_path / "s.csv"
    outs = []
    for flags in ([], ["--scale", 0, "--sigma", "zero"]):
        assert run2(["sample", "--seed", 5, "--checkpoint", ckpt, "--n", 3, *flags,
                     "--out", out]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_sample_different_seeds_differ(tmp_path):
    ckpt = train_small(tmp_path, "m.ckpt")
    outs = []
    for seed in (5, 6):
        out = tmp_path / f"s{seed}.csv"
        assert run2(["sample", "--seed", seed, "--checkpoint", ckpt,
                     "--n", 20, "--out", out]) == 0
        outs.append(out.read_bytes())
    assert outs[0] != outs[1]


def test_cli_forward_and_hist_pipeline(tmp_path):
    fwd = tmp_path / "fwd.csv"
    assert run2(["forward", "--seed", 2, "--desk", "--x0", "1.0", "--n", 3,
                 "--out", fwd]) == 0
    text = fwd.read_text()
    assert text.startswith("#")
    assert "chain,t,dim0" in text
    hist = tmp_path / "h.csv"
    assert run2(["hist", "--seed", 0, "--input", fwd, "--bins", 10,
                 "--out", hist]) == 0
    lines = [l for l in hist.read_text().splitlines() if not l.startswith("#")]
    counts = sum(int(l.split(",")[2]) for l in lines[1:])
    assert counts == 3 * 101  # all forward rows binned


def test_cli_vlb_runs_and_totals(tmp_path):
    ckpt = train_small(tmp_path, "m.ckpt")
    out = tmp_path / "v.csv"
    assert run2(["vlb", "--seed", 4, "--checkpoint", ckpt, "--x0", "0.5",
                 "--M", 2, "--out", out]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if not l.startswith("#")][1:]
    terms = {r[0]: float(r[2]) for r in rows if r[0] in ("L0", "LT", "total")}
    lt_sum = sum(float(r[2]) for r in rows if r[0] == "Lt")
    assert math.isclose(terms["total"], terms["L0"] + lt_sum + terms["LT"],
                        rel_tol=1e-12)


def test_cli_kl_demo_closed_form_column(tmp_path):
    out = tmp_path / "kl.csv"
    assert run2(["kl-demo", "--seed", 1, "--q", "1,1", "--p", "0,4",
                 "--M", 100000, "--out", out]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if not l.startswith("#")][1:]
    closed = float(rows[0][1])
    assert abs(closed - 0.4431471805599453) < 1e-12
    # the largest-M MC estimate lands near the closed form
    assert abs(float(rows[-1][2]) - closed) < 0.02


def test_cli_reparam_demo_converges(tmp_path):
    out = tmp_path / "rp.csv"
    assert run2(["reparam-demo", "--seed", 1, "--theta", "0.5,1.5",
                 "--M", 100000, "--out", out]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if not l.startswith("#")][1:]
    g1, g2 = float(rows[-1][1]), float(rows[-1][2])
    assert abs(g1 - 0.5) < 0.02 and abs(g2 - 1.5) < 0.05


def test_cli_config_file_flag_precedence(tmp_path):
    cfgf = tmp_path / "cfg"
    cfgf.write_text("steps=10\nhidden=4\n")
    out1 = tmp_path / "c1.ckpt"
    assert run2(["train", "--seed", 9, "--desk", "--config", cfgf,
                 "--out", out1]) == 0
    m1, _ = load_checkpoint(out1)
    assert m1.hidden == (4,)
    out2 = tmp_path / "c2.ckpt"
    assert run2(["train", "--seed", 9, "--desk", "--config", cfgf,
                 "--hidden", "6", "--out", out2]) == 0
    m2, _ = load_checkpoint(out2)
    assert m2.hidden == (6,)  # explicit flag wins over config file


def test_cli_train_reads_config_file_once(tmp_path, monkeypatch):
    calls = []
    real = cli._read_config
    monkeypatch.setattr(cli, "_read_config", lambda path: calls.append(path) or real(path))
    cfgf = tmp_path / "cfg"
    cfgf.write_text("beta-start=0.001\nbeta-end=0.2\nsteps=10\nbatch=8\neta=0.01\nhidden=4\n")
    assert run2(["train", "--seed", 9, "--desk", "--config", cfgf,
                 "--out", tmp_path / "c.ckpt"]) == 0
    assert calls == [str(cfgf)]


def _bad_input(tmp_path, case):
    """argv for one malformed invocation, with the files it needs."""
    ckpt = train_small(tmp_path, "m.ckpt")
    if case == "classifier-guidance-without-classifier":
        return ["sample", "--seed", 0, "--checkpoint", ckpt, "--guidance", "classifier",
                "--label", 1, "--out", tmp_path / "s.csv"]
    if case == "classifier-other-schedule":  # T = 100 on both, linear for the model
        cls = train_small(tmp_path, "cls.ckpt", ["--classifier", "--schedule", "cosine"])
        return ["sample", "--seed", 0, "--checkpoint", ckpt, "--guidance", "classifier",
                "--classifier", cls, "--label", 1, "--scale", 1, "--out", tmp_path / "s.csv"]
    if case in ("sample-huge-params", "vlb-huge-params"):  # step 1's loss is still finite
        huge = train_small(tmp_path, "huge.ckpt", ["--steps", 1, "--eta", "1e300"])
        x0 = ["--x0", 0.5] if case == "vlb-huge-params" else []
        return [case.split("-")[0], "--seed", 0, "--checkpoint", huge, *x0,
                "--out", tmp_path / "h.csv"]
    if case == "hist-no-data-rows":
        empty = tmp_path / "empty.csv"
        empty.write_text("# seed=0\n")
        return ["hist", "--seed", 0, "--input", empty, "--out", tmp_path / "h.csv"]
    if case == "reparam-theta-one-value":
        return ["reparam-demo", "--seed", 0, "--theta", "1", "--M", 10]
    if case == "kl-q-one-value":
        return ["kl-demo", "--seed", 0, "--q", "1", "--p", "0,4", "--M", 10]
    if case == "forward-zero-chains":
        return ["forward", "--seed", 0, "--desk", "--x0", "1", "--n", 0]
    if case == "sample-classifier-checkpoint":
        cls = train_small(tmp_path, "cls.ckpt", ["--classifier"])
        return ["sample", "--seed", 0, "--checkpoint", cls, "--out", tmp_path / "s.csv"]
    if case == "vlb-classifier-checkpoint":
        cls = train_small(tmp_path, "cls.ckpt", ["--classifier"])
        return ["vlb", "--seed", 0, "--checkpoint", cls, "--x0", 0.5,
                "--out", tmp_path / "v.csv"]
    if case == "classifier-flag-noise-predictor":
        return ["sample", "--seed", 0, "--checkpoint", ckpt, "--guidance", "classifier",
                "--classifier", ckpt, "--label", 1, "--out", tmp_path / "s.csv"]
    if case == "hist-short-row":
        short = tmp_path / "short.csv"
        short.write_text("# seed=0\nchain,t,dim0\n0,0\n1,0,2.5\n")
        return ["hist", "--seed", 0, "--input", short, "--out", tmp_path / "h.csv"]
    if case in ("hist-bad-value", "hist-nan", "hist-inf"):
        bad = tmp_path / "bad.csv"
        v = {"hist-bad-value": "abc", "hist-nan": "nan", "hist-inf": "inf"}[case]
        bad.write_text(f"# seed=0\nchain,t,dim0\n0,0,1.5\n1,0,{v}\n")
        return ["hist", "--seed", 0, "--input", bad, "--out", tmp_path / "h.csv"]
    if case == "hist-no-dim0":
        other = tmp_path / "other.csv"
        other.write_text("# seed=0\nchain,t,dim1\n0,0,2.5\n")
        return ["hist", "--seed", 0, "--input", other, "--out", tmp_path / "h.csv"]
    if case.startswith("config-"):  # a config line is parsed as the flag it names
        cfgf = tmp_path / "bad.cfg"
        cfgf.write_text({"config-unknown-key": "stpes=10\n",
                         "config-fractional-count": "steps=2.5\n",
                         "config-desk-all-given": "T=50\nbeta-start=0.01\nbeta-end=0.1\n"}[case])
        return ["train", "--seed", 0, "--desk", "--config", cfgf, "--out", tmp_path / "h.csv"]
    train = ["train", "--seed", 0, "--desk", "--steps", 1, "--hidden", 4]
    forward = ["forward", "--seed", 0, "--T", 5, "--x0", 1]
    # bad values, empty paths and flags the run ignores; each would write h.csv if it got
    # that far
    writes_h = {
        "train-hidden-fractional": [*train, "--hidden", "4.5"],
        "train-hidden-empty": [*train, "--hidden", ""],
        "train-hidden-trailing-comma": [*train, "--hidden", "4,"],
        "train-hidden-zero": [*train, "--hidden", "0"],
        "train-classifier-conditional": [*train, "--classifier", "--conditional"],
        "train-p-drop-unconditional": [*train, "--p-drop", "0"],
        "train-p-drop-classifier": [*train, "--classifier", "--p-drop", "0.2"],
        "forward-cosine-beta-start": [*forward, "--schedule", "cosine", "--beta-start", 0.5],
        "forward-cosine-beta-end": [*forward, "--schedule", "cosine", "--beta-end", 0.5],
        "forward-linear-offset": [*forward, "--offset", 0.1],
        "forward-cosine-offset-inf": [*forward, "--schedule", "cosine", "--offset", "inf"],
        "forward-desk-cosine-T": [*forward, "--desk", "--schedule", "cosine"],
        "train-desk-all-given": [*train, "--T", 50, "--beta-start", 0.01, "--beta-end", 0.1],
        "kl-q-nan": ["kl-demo", "--seed", 0, "--q", "1,nan", "--p", "0,4", "--M", 10],
        "forward-x0-nan": ["forward", "--seed", 0, "--desk", "--x0", "nan"],
        "forward-x0-inf": ["forward", "--seed", 0, "--desk", "--x0", "inf"],
        "vlb-x0-nan": ["vlb", "--seed", 0, "--checkpoint", ckpt, "--x0", "nan"],
        "sample-cfg-scale-nan": ["sample", "--seed", 0, "--checkpoint", ckpt, "--guidance",
                                 "cfg", "--label", 0, "--scale", "nan"],
        "sample-cfg-scale-inf": ["sample", "--seed", 0, "--checkpoint", ckpt, "--guidance",
                                 "cfg", "--label", 0, "--scale", "inf"],
        "sample-cfg-without-label": ["sample", "--seed", 0, "--checkpoint", ckpt,
                                     "--guidance", "cfg", "--scale", 1],
        "sample-classifier-without-label": ["sample", "--seed", 0, "--checkpoint", ckpt,
                                            "--guidance", "classifier", "--classifier", ckpt],
        "sample-classifier-without-guidance": ["sample", "--seed", 0, "--checkpoint", ckpt,
                                               "--classifier", ckpt],
        "sample-scale-without-guidance": ["sample", "--seed", 0, "--checkpoint", ckpt,
                                          "--scale", 3],
        "sample-sigma-ddpm-sampler": ["sample", "--seed", 0, "--checkpoint", ckpt,
                                      "--sigma", "ddpm"],
        "train-eta-nan": [*train, "--eta", "nan"],
        "train-eta-inf": [*train, "--steps", 5, "--eta", "inf"],
        "train-eta-huge": [*train, "--steps", 5, "--eta", "1e300"],  # step 2 overflows
        "train-loss-csv-empty": [*train, "--loss-csv", ""],
    }
    if case in writes_h:
        return writes_h[case] + ["--out", tmp_path / "h.csv"]
    if case == "hist-zero-bins":
        samples = tmp_path / "s.csv"
        assert run2(["sample", "--seed", 0, "--checkpoint", ckpt, "--n", 5,
                     "--out", samples]) == 0
        return ["hist", "--seed", 0, "--input", samples, "--bins", 0,
                "--out", tmp_path / "h.csv"]
    broken = tmp_path / "broken.ckpt"
    broken.write_text("".join(l for l in ckpt.read_text().splitlines(keepends=True)
                              if not l.startswith("hidden=")))
    return ["sample", "--seed", 0, "--checkpoint", broken, "--out", tmp_path / "s.csv"]


@pytest.mark.parametrize("case, code, message", [
    ("classifier-guidance-without-classifier", 1, "--classifier"),
    ("classifier-other-schedule", 2, "have different schedules"),
    ("sample-cfg-without-label", 1, "--guidance cfg needs --label"),
    ("sample-classifier-without-label", 1, "--guidance classifier needs --label"),
    ("hist-no-data-rows", 2, "no data rows"),
    ("hist-zero-bins", 1, "--bins"),
    ("checkpoint-missing-key", 2, "'hidden'"),
    ("reparam-theta-one-value", 1, "--theta"),
    ("kl-q-one-value", 1, "--q"),
    ("forward-zero-chains", 1, "--n"),
    ("sample-classifier-checkpoint", 2, "not a NoisePredictor"),
    ("vlb-classifier-checkpoint", 2, "not a NoisePredictor"),
    ("classifier-flag-noise-predictor", 2, "not a Classifier"),
    ("hist-short-row", 2, "no dim0 field"),
    ("hist-bad-value", 2, "bad.csv: dim0 value 'abc' is not a finite number"),
    ("hist-nan", 2, "bad.csv: dim0 value 'nan' is not a finite number"),
    ("hist-inf", 2, "bad.csv: dim0 value 'inf' is not a finite number"),
    ("hist-no-dim0", 2, "other.csv: no dim0 column"),
    ("kl-q-nan", 1, "--q needs finite numbers"),
    ("forward-x0-nan", 1, "--x0 needs finite numbers"),
    ("forward-x0-inf", 1, "--x0 needs finite numbers"),
    ("vlb-x0-nan", 1, "--x0 needs finite numbers"),
    ("sample-cfg-scale-nan", 2, "scale must be finite and >= 0"),
    ("sample-cfg-scale-inf", 2, "scale must be finite and >= 0"),
    ("sample-huge-params", 2, "error: overflow encountered"),
    ("vlb-huge-params", 2, "error: overflow encountered"),
    ("sample-classifier-without-guidance", 1,
     "--classifier does not apply without --guidance classifier"),
    ("sample-scale-without-guidance", 1, "a nonzero --scale does not apply without --guidance"),
    ("sample-sigma-ddpm-sampler", 1, "--sigma ddpm does not apply to --sampler ddpm"),
    ("train-eta-nan", 2, "eta must be finite and >= 0"),
    ("train-eta-inf", 2, "eta must be finite and >= 0"),
    ("train-eta-huge", 2, "nonfinite loss at step 2: inf"),
    ("train-loss-csv-empty", 2, "--loss-csv"),
    ("config-unknown-key", 1, "unrecognized arguments: --stpes=10"),
    ("config-fractional-count", 1, "--steps: invalid int value: '2.5'"),
    ("train-hidden-fractional", 1, "--hidden: needs integers >= 1, got '4.5'"),
    ("train-hidden-empty", 1, "--hidden: needs integers >= 1, got ''"),
    ("train-hidden-trailing-comma", 1, "--hidden: needs integers >= 1, got ''"),
    ("train-hidden-zero", 1, "--hidden: needs integers >= 1, got '0'"),
    ("train-classifier-conditional", 1, "--conditional: not allowed with argument --classifier"),
    ("train-p-drop-unconditional", 1, "--p-drop does not apply without --conditional"),
    ("train-p-drop-classifier", 1, "--p-drop does not apply without --conditional"),
    ("forward-cosine-beta-start", 1, "--beta-start does not apply to a cosine schedule"),
    ("forward-cosine-beta-end", 1, "--beta-end does not apply to a cosine schedule"),
    ("forward-linear-offset", 1, "--offset does not apply to a linear schedule"),
    ("forward-cosine-offset-inf", 2, "offset: must be finite and > 0"),
    ("forward-desk-cosine-T", 1, "--desk does not apply when every value of its profile"),
    ("train-desk-all-given", 1, "--desk does not apply when every value of its profile"),
    ("config-desk-all-given", 1, "--desk does not apply when every value of its profile"),
])
def test_cli_bad_input_exits_with_message(tmp_path, capsys, case, code, message):
    argv = _bad_input(tmp_path, case)
    capsys.readouterr()
    assert run2(argv) == code   # an escaping exception fails the test here
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "h.csv").exists()
    assert capsys.readouterr().out == ""   # no partial table on stdout


@pytest.mark.parametrize("command", ["sample", "forward", "vlb", "kl-demo", "reparam-demo",
                                     "hist"])
def test_cli_empty_out_exits_2_before_writing(tmp_path, capsys, command):
    # an empty --out used to fall through to stdout and exit 0
    ckpt = train_small(tmp_path, "m.ckpt")
    data = tmp_path / "d.csv"
    data.write_text("# seed=0\nchain,t,dim0\n0,0,1.5\n1,0,-0.5\n")
    args = {"sample": ["--checkpoint", ckpt, "--n", 3],
            "forward": ["--desk", "--x0", 1],
            "vlb": ["--checkpoint", ckpt, "--x0", 0.5],
            "kl-demo": ["--q", "0,1", "--p", "1,2", "--M", 10],
            "reparam-demo": ["--M", 10],
            "hist": ["--input", data]}[command]
    capsys.readouterr()
    assert run2([command, "--seed", 0, *args, "--out", ""]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--out and --loss-csv need a non-empty path" in err


def test_cli_hist_constant_column_has_no_zero_width_bin(tmp_path):
    const = tmp_path / "const.csv"
    const.write_text("# seed=0\nchain,t,dim0\n0,0,1.5\n1,0,1.5\n")
    out = tmp_path / "h.csv"
    assert run2(["hist", "--seed", 0, "--input", const, "--bins", 4, "--out", out]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if not l.startswith("#")][1:]
    assert len(rows) == 4 and all(float(lo) < float(hi) for lo, hi, _ in rows)
    assert sum(int(c) for _, _, c in rows) == 2
