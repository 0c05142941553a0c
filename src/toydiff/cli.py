"""Command-line surface for reproducible desk-scale experiments.

Subcommands: train, sample, forward, vlb, kl-demo, reparam-demo, hist.
Every command requires --seed and identical invocations produce
byte-identical output files.  Flags override key=value config files, and
only the flags given reach the library: every other value is the default
of the library function that takes it.  The CLI's own defaults are T = 1000
and, under --desk, the desk-scale profile T = 100, linear beta in [1e-3, 0.2].

run_cli calls each handler with the RngState of --seed and writes the
(columns, rows) table it returns (train's returns none) to --out or stdout.

Exit codes: 0 success; 1 usage error (a bad flag or config line, an --n, --M,
--bins or --hidden width below 1, a flag the run would ignore, --desk with
every value of its profile given, --guidance cfg or classifier without --label
or the classifier without --classifier, a malformed or non-finite vector flag);
2 domain error (a bad setting or path, divergence, a missing or malformed file,
a checkpoint of the wrong kind, a classifier trained on another schedule than
the model).
"""

import argparse
import sys

import numpy as np

from . import estimators, forward, gaussian, guidance, losses, persistence, samplers
from . import schedules, training
from .model import Classifier, NoisePredictor, init_classifier, init_noise_predictor
from .persistence import FORMAT_VERSION, write_csv
from .rng import RngState


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_config(path):
    cfg = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise _UsageError(f"bad config line: {line!r}")
            k, v = line.split("=", 1)
            cfg[k.strip()] = v.strip()
    return cfg


def _given(args, **params):
    """{library parameter: value} of the flags given on the command line or in --config;
    params maps each flag's dest to the parameter it sets."""
    return {p: getattr(args, d) for d, p in params.items() if getattr(args, d) is not None}


def _unused(args, why, *dests):
    """A usage error naming the first flag of dests that was given: this run ignores it."""
    for d in dests:
        if getattr(args, d) is not None:
            raise _UsageError(f"--{d.replace('_', '-')} does not apply {why}")


def _schedule_from(args):
    kind = args.schedule or "linear"
    make, names = schedules.constructor(kind)
    others = (d for k in schedules.KINDS for d in schedules.constructor(k)[1] if d not in names)
    _unused(args, f"to a {kind} schedule", *others)
    given = _given(args, T="T", **{k: k for k in names})
    desk = {"T": 100, "beta_start": 1e-3, "beta_end": 0.2}  # a kind takes the keys it declares
    desk = {k: desk[k] for k in ("T", *names) if k in desk}
    if args.desk and desk.keys() <= given.keys():
        raise _UsageError("--desk does not apply when every value of its profile is given")
    return make(**{**(desk if args.desk else {"T": 1000}), **given})


def _meta(args):
    flags = {f"flag_{k}": ",".join(map(str, v)) if isinstance(v, tuple) else v
             for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    return {"format_version": FORMAT_VERSION, **flags, "seed": args.seed}


def _count(text):
    """argparse type of --n, --M, --bins and each --hidden width: an integer >= 1."""
    try:
        return schedules.check_count(int(text), 1, "count")
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs integers >= 1, got {text!r}")


def _hidden(text):
    """argparse type of --hidden: comma-separated layer widths, each a _count."""
    return tuple(_count(w) for w in text.split(","))


def _parse_vec(text, flag, n=None):
    """The comma-separated numbers of a vector flag; n fixes their count."""
    try:
        vec = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise _UsageError(f"{flag} needs comma-separated numbers, got {text!r}")
    if n is not None and len(vec) != n:
        raise _UsageError(f"{flag} needs {n} values, got {len(vec)}")
    if not np.all(np.isfinite(vec)):
        raise _UsageError(f"{flag} needs finite numbers, got {text!r}")
    return vec


def _load(path, kind):
    """(model, schedule) from the checkpoint at path; the model must be a kind."""
    m, sched = persistence.load_checkpoint(path)
    if not isinstance(m, kind):
        raise ValueError(f"{path} holds a {type(m).__name__}, not a {kind.__name__}")
    return m, sched


def _cmd_train(args, rng):
    if not args.conditional:
        _unused(args, "without --conditional", "p_drop")
    sched = _schedule_from(args)
    data = forward.default_mixture()
    cfg = training.TrainConfig(
        **_given(args, steps="steps", batch="batch_size", eta="eta", p_drop="p_drop"))
    hidden = _given(args, hidden="hidden")
    if args.classifier:
        m = init_classifier(data.dim, data.n_components, rng=rng.spawn(1), **hidden)
        report = training.train_classifier(m, data, sched, cfg, rng.spawn(2))
    else:
        cond = data.n_components if args.conditional else None
        m = init_noise_predictor(data.dim, conditioning=cond, rng=rng.spawn(1), **hidden)
        report = training.train(m, data, sched, cfg, rng.spawn(2))
    persistence.save_checkpoint(m, sched, args.out, seed_note=f"seed={args.seed}")
    if args.loss_csv is not None:
        write_csv(args.loss_csv, ["step", "loss"], report.loss_curve, _meta(args))


def _cmd_sample(args, rng):
    if args.guidance == "classifier" and args.classifier is None:
        raise _UsageError("--guidance classifier needs --classifier")
    if args.guidance != "none" and args.label is None:
        raise _UsageError(f"--guidance {args.guidance} needs --label")
    if args.guidance != "classifier":
        _unused(args, "without --guidance classifier", "classifier")
    if args.guidance == "none" and args.scale != 0.0:  # NaN fails too
        raise _UsageError("a nonzero --scale does not apply without --guidance")
    if args.sampler == "ddpm" and args.sigma != "zero":
        raise _UsageError("--sigma ddpm does not apply to --sampler ddpm")
    m, sched = _load(args.checkpoint, NoisePredictor)
    c = None
    if args.guidance == "classifier":
        c, c_sched = _load(args.classifier, Classifier)
        if c_sched != sched:
            raise ValueError(f"{args.classifier} and {args.checkpoint} have different schedules")
    cfg = samplers.SamplerConfig(kind=args.sampler, sigma_policy=args.sigma,
                                 n_chains=args.n)
    mode = {"cfg": "classifier-free"}.get(args.guidance, args.guidance)
    g = guidance.GuidanceConfig(mode=mode, scale=args.scale, target=args.label, classifier=c)
    x0 = samplers.final_states(guidance.guided_sample(m, cfg, g, sched, rng))
    extra = {"label": args.label,
             "guidance_scale": None if args.guidance == "none" else float(args.scale)}
    extra = {k: v for k, v in extra.items() if v is not None}
    cols = ["chain", "t"] + [f"dim{i}" for i in range(m.data_dim)] + list(extra)
    return cols, [(i, 0, *x, *extra.values()) for i, x in enumerate(x0)]


def _cmd_forward(args, rng):
    x0 = _parse_vec(args.x0, "--x0")
    sched = _schedule_from(args)
    cols = ["chain", "t"] + [f"dim{i}" for i in range(len(x0))]
    rows = []
    for chain in range(args.n):
        tr = forward.simulate_forward(x0, sched, rng.spawn(chain))
        rows.extend((chain, int(t), *s) for t, s in zip(tr.times, tr.states))
    return cols, rows


def _cmd_vlb(args, rng):
    x0 = _parse_vec(args.x0, "--x0")
    m, sched = _load(args.checkpoint, NoisePredictor)
    rep = losses.vlb_estimate(m, x0, sched, args.M, rng)
    rows = [("L0", 1, rep.L0)]
    rows += [("Lt", t, rep.Lt[t - 2]) for t in range(2, sched.T + 1)]
    rows += [("LT", sched.T, rep.LT), ("total", -1, rep.total)]
    return ["term", "t", "nats"], rows


def _cmd_kl_demo(args, rng):
    mq, vq = _parse_vec(args.q, "--q", 2)
    mp, vp = _parse_vec(args.p, "--p", 2)
    q = gaussian.DiagGaussian([mq], [vq])
    p = gaussian.DiagGaussian([mp], [vp])
    closed = gaussian.kl_closed_form(q, p)
    rows = [(M, closed, gaussian.kl_mc(q, p, M, rng)) for M in (10, 100, 1000, 10000, args.M)]
    return ["M", "closed_form", "mc_estimate"], rows


def _cmd_reparam_demo(args, rng):
    theta = _parse_vec(args.theta, "--theta", 2)
    rows = [(M, *estimators.reparam_grad(theta, M, rng.spawn(M)))
            for M in (100, 1000, 10000, args.M)]
    return ["M", "grad_theta1", "grad_theta2"], rows


def _cmd_hist(args, rng):
    with open(args.input) as fh:
        lines = [l for l in fh.read().splitlines() if l and not l.startswith("#")]
    if len(lines) < 2:
        raise ValueError(f"{args.input}: no data rows to histogram")
    header = lines[0].split(",")
    if "dim0" not in header:
        raise ValueError(f"{args.input}: no dim0 column")
    col = header.index("dim0")
    vals = []
    for fields in (l.split(",") for l in lines[1:]):
        try:
            vals.append(float(fields[col]))  # float() also reads 'nan' and 'inf'
        except IndexError:
            raise ValueError(f"{args.input}: a data row has no dim0 field")
        except ValueError:
            vals.append(np.nan)
        if not abs(vals[-1]) < np.inf:  # NaN fails too
            raise ValueError(f"{args.input}: dim0 value {fields[col]!r} is not a finite number")
    # numpy's rule: equal-width bins over [min, max], or [v - 0.5, v + 0.5] if all equal v
    counts, edges = np.histogram(vals, bins=args.bins)
    rows = list(zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))
    return ["lo", "hi", "count"], rows


def _add_schedule_flags(p):
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--schedule", choices=schedules.KINDS, default=None)
    for kind in schedules.KINDS:  # each kind's arguments after T, in KINDS order
        for a in schedules.constructor(kind)[1]:
            p.add_argument(f"--{a.replace('_', '-')}", type=float, default=None)
    p.add_argument("--desk", action="store_true",
                   help="desk-scale profile: T=100 and linear beta in [1e-3, 0.2]; "
                        "flags override its values, and overriding all of them is an error")
    p.add_argument("--config", default=None, help="key=value lines, each parsed as --key=value")


def build_parser():
    ap = _Parser(prog="toydiff", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", required=name == "train")
        p.set_defaults(func=fn)
        return p

    p = add("train", _cmd_train)
    _add_schedule_flags(p)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--p-drop", type=float, default=None)
    p.add_argument("--hidden", type=_hidden, default=None, help="comma-separated widths")
    g = p.add_mutually_exclusive_group()  # the classifier takes no class input
    g.add_argument("--conditional", action="store_true")
    g.add_argument("--classifier", action="store_true",
                   help="train the class predictor instead of the noise predictor")
    p.add_argument("--loss-csv", default=None)

    p = add("sample", _cmd_sample)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sampler", choices=["ddpm", "ddim"], default="ddpm")
    p.add_argument("--sigma", choices=["zero", "ddpm"], default="zero")
    p.add_argument("--n", type=_count, default=100)
    p.add_argument("--label", type=int, default=None)
    p.add_argument("--guidance", choices=["none", "cfg", "classifier"], default="none")
    p.add_argument("--scale", type=float, default=0.0)
    p.add_argument("--classifier", default=None, help="classifier checkpoint path")

    p = add("forward", _cmd_forward)
    _add_schedule_flags(p)
    p.add_argument("--x0", required=True, help="comma-separated start vector")
    p.add_argument("--n", type=_count, default=1, help="number of trajectories")

    p = add("vlb", _cmd_vlb)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--M", type=_count, default=1)

    p = add("kl-demo", _cmd_kl_demo)
    p.add_argument("--q", required=True, help="mean,var of q")
    p.add_argument("--p", required=True, help="mean,var of p")
    p.add_argument("--M", type=_count, default=100000)

    p = add("reparam-demo", _cmd_reparam_demo)
    p.add_argument("--theta", default="0.5,1.5")
    p.add_argument("--M", type=_count, default=100000)

    p = add("hist", _cmd_hist)
    p.add_argument("--input", required=True)
    p.add_argument("--bins", type=_count, default=40)

    return ap


def run_cli(argv):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if getattr(args, "config", None):  # each line parsed as its flag; argv flags win
            lines = [f"--{k}={v}" for k, v in _read_config(args.config).items()]
            args = ap.parse_args(argv[:1] + lines + argv[1:])
        if "" in (args.out, getattr(args, "loss_csv", None)):  # fail before any work
            raise ValueError("--out and --loss-csv need a non-empty path")
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # an overflowing model exits 2
            table = args.func(args, RngState(args.seed))
            if table is not None:
                write_csv(args.out or sys.stdout, *table, _meta(args))
        return 0
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        ap.print_usage(sys.stderr)
        return 1
    except (ValueError, FloatingPointError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
