"""Text checkpoints and CSV output.

Checkpoints are diff-able key=value text with one parameter per line,
printed with 17 significant digits so 64-bit floats round-trip exactly.
Schedules are stored by construction arguments, not arrays, and are
rebuilt and checked by their constructors on load.  CSV files start
with a '#'-prefixed metadata comment block sufficient to reproduce them.
"""

import numpy as np

from . import schedules
from .model import Classifier, NoisePredictor

FORMAT_VERSION = 1


def _fmt(v):
    return format(float(v), ".17g")


def save_checkpoint(m, sched, path, seed_note=""):
    """Write model + schedule construction args; bit-exact round trip."""
    kind = "classifier" if isinstance(m, Classifier) else "noise_predictor"
    lines = [
        "# toydiff-checkpoint",
        f"version={FORMAT_VERSION}",
        f"kind={kind}",
        f"data_dim={m.data_dim}",
        "hidden=" + ",".join(str(w) for w in m.hidden),
        ("conditioning=" + ("none" if m.conditioning is None else str(m.conditioning))
         + "\nskip=1")  # the baseline is always on; load_checkpoint requires the key
        if kind == "noise_predictor" else f"n_classes={m.n_classes}",
        f"schedule_kind={sched.kind}",
        f"schedule_T={sched.T}",
    ]
    for k, v in sorted(sched.args.items()):
        lines.append(f"schedule_{k}={_fmt(v)}")
    lines.append(f"seed_provenance={seed_note}")
    lines.append(f"n_params={m.n_params}")
    lines.append("params:")
    lines.extend(_fmt(p) for p in m.params)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


class _Meta(dict):
    """Checkpoint key=value pairs; a missing required key is a ValueError."""

    def __missing__(self, key):
        raise ValueError(f"checkpoint is missing the key {key!r}")

    def integer(self, key, value=None):
        """int(value), self[key] by default; a ValueError that names the key and the value."""
        return self._read(int, "an integer", key, value)

    def real(self, key):
        """float(self[key]); a ValueError that names the key and the value."""
        return self._read(float, "a float", key, None)

    def _read(self, cast, what, key, value):
        value = self[key] if value is None else value
        try:
            return cast(value)
        except ValueError:
            raise ValueError(f"checkpoint {key}={value!r}: not {what}") from None


def load_checkpoint(path):
    """Read a checkpoint back into (model, schedule)."""
    with open(path) as fh:
        raw = fh.read().splitlines()
    meta, params, in_params = _Meta(), [], False
    for i, line in enumerate(raw, start=1):
        if not line or line.startswith("#"):
            continue
        try:  # a parameter that is not a float, or a header line without '='
            if in_params:
                params.append(float(line))
            elif line == "params:":
                in_params = True
            else:
                k, v = line.split("=", 1)
                meta[k] = v
        except ValueError:
            raise ValueError(f"checkpoint parse error at line {i}: {line!r}")
    if meta.integer("version") != FORMAT_VERSION:
        raise ValueError(f"unknown checkpoint version: {meta['version']}")
    n = meta.integer("n_params")
    if len(params) != n:
        raise ValueError(f"checkpoint truncated: expected {n} parameters, "
                         f"got {len(params)} (file ends at line {len(raw)})")

    make, names = schedules.constructor(meta["schedule_kind"])
    sched = make(meta.integer("schedule_T"), **{k: meta.real(f"schedule_{k}") for k in names})

    widths = meta["hidden"].split(",") if meta["hidden"] else ()
    hidden = tuple(meta.integer("hidden", w) for w in widths)
    p = np.asarray(params)
    if meta["kind"] == "classifier":
        m = Classifier(meta.integer("data_dim"), hidden, meta.integer("n_classes"), p)
    elif meta["kind"] == "noise_predictor":
        if meta["skip"] != "1":
            raise ValueError(f"unsupported checkpoint skip={meta['skip']}: "
                             "the noise predictor always has skip=1")
        cond = meta["conditioning"]
        m = NoisePredictor(meta.integer("data_dim"), hidden,
                           None if cond == "none" else meta.integer("conditioning"), p)
    else:
        raise ValueError(f"unknown checkpoint kind: {meta['kind']}")
    return m, sched


def write_csv(path, columns, rows, meta):
    """CSV with '#' metadata block; period decimals, no locale surprises."""
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (float, np.floating))
                              else str(v) for v in row))
    out = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(out)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(out)
