"""Command-line front end: link runs, sweeps, sync trade-off tables, and
FIFO simulations, all emitting CSV (or JSON for fifo stats).

Each subcommand's argparse parser is the one schema of its options: type,
choices and default are written once, in `add_argument`.  A config file
(`--config`) holds `key = value` lines using the long option names (dashes
or underscores); each value is converted and checked through its flag's own
action, and the values become the subcommand's defaults for a second parse,
so precedence is defaults < config file < explicit command-line flags.
`--seed` must be supplied one way or the other so every published number is
reproducible.  The process exits nonzero on any invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys

from . import elastic, harness, sync
from .channel import LinkBudget
from .framing import FRAME_KINDS


def _parse_values(text: str) -> tuple[float, ...]:
    if not all(item.split() for item in text.split(",")):
        raise argparse.ArgumentTypeError(f"empty item in {text!r}")
    values = []
    for item in text.replace(",", " ").split():
        try:
            values.append(float(item))
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {item!r}") from None
    return tuple(values)


def _parse_gammas(text: str) -> range:
    lo, _, hi = text.partition(":")
    try:
        first, last = int(lo), int(hi or lo)
    except ValueError:
        raise ValueError(f"--gammas {text}: expected LO or LO:HI integers") from None
    if last < first:
        raise ValueError(f"--gammas {text}: range runs backwards")
    return range(first, last + 1)


@contextlib.contextmanager
def _output(path: str):
    """The --out target: standard output for "-" (or empty), else a new file."""
    if path in ("", "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _config_values(parser: argparse.ArgumentParser, path: str) -> dict:
    """A --config file's `key = value` lines, each converted and checked like its flag."""
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config", "out")}
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, text = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in actions:
                raise ValueError(f"{path}: unknown key {key}")
            action = actions[key]
            try:
                value = _BOOL[text.lower()] if action.nargs == 0 else (action.type or str)(text)
                if action.choices is not None and value not in action.choices:
                    raise ValueError(text)
            except (ValueError, KeyError, argparse.ArgumentTypeError):
                raise ValueError(f"{path}: bad value for {key}: {text!r}") from None
            values[key] = value
    return values


# option -> (dataclass field, help text); type and default are the field's own
_BUDGET_OPTIONS = {
    "tx_power": ("tx_power_dbm", "dBm"),
    "tx_gain": ("tx_gain_dbi", "dBi"),
    "rx_gain": ("rx_gain_dbi", "dBi"),
    "carrier_hz": ("carrier_hz", "Hz"),
    "noise_figure": ("noise_figure_db", "dB"),
    "extra_loss": ("extra_loss_db", "dB, e.g. 15 for the blockage scenario"),
}
_FIFO_OPTIONS = {
    "capacity": ("capacity_bytes", "buffer size in bytes"),
    "upper": ("upper_threshold", "occupancy that asserts stop"),
    "lower": ("lower_threshold", "occupancy at which writing resumes"),
    "write_hz": ("write_clock_hz", "write clock in Hz"),
    "read_hz": ("read_clock_hz", "read clock in Hz"),
    "latency": ("resume_latency_cycles", "stop-signal turnaround in write cycles"),
}
_MAX_CYCLES = 1e11  # bursty: ~0.7 s per 1e9 cycles on 2 x86 cores, so ~1.2 min; exact as floats
_MAX_FRAMES = 250_000  # a run peaks at ~2 kB a P32 frame and ~3.7 kB a P64 one: under 1 GB
_KINDS = tuple(tag.lower() for tag in FRAME_KINDS)
_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _add_field_options(p: argparse.ArgumentParser, options: dict, cls: type) -> None:
    for opt, (name, text) in options.items():
        default = getattr(cls, name)
        p.add_argument("--" + opt.replace("_", "-"), dest=opt, type=type(default),
                       default=default, help=text + " (default %(default)g)")


def _add_link_options(p: argparse.ArgumentParser, func) -> None:
    p.add_argument("--config", help="key = value file overriding defaults")
    p.add_argument("--kind", choices=_KINDS, default="p32",
                   help="frame format (default %(default)s)")
    p.add_argument("--channel", choices=("awgn", "bsc", "distance"), default="awgn",
                   help="channel model (default %(default)s)")
    p.add_argument("--ebn0", type=float, default=8.0,
                   help="Eb/N0 in dB for the awgn channel (default %(default)g)")
    p.add_argument("--p", type=float, default=1e-4,
                   help="flip probability for the bsc channel (default %(default)g)")
    p.add_argument("--distance", type=float, default=10.0,
                   help="Tx-Rx distance in m for the distance channel (default %(default)g)")
    p.add_argument("--frames", type=int,
                   help=f"frames per run, at most {_MAX_FRAMES}; default auto-sizes for ~100 expected "
                        f"raw error events at the operating point, capped at {harness.FRAMES_CAP}")
    p.add_argument("--gamma", type=int, help="sync threshold (default per frame kind)")
    p.add_argument("--seed", type=int, help="master seed; required for every run")
    p.add_argument("--uncoded", action="store_true",
                   help="reference Eb to channel bits, code rate 1 (default %(default)s)")
    p.add_argument("--bit-offset", dest="bit_offset", type=int, default=0,
                   help="junk bits injected before the first frame, 0-7 (default %(default)s)")
    _add_field_options(p, _BUDGET_OPTIONS, LinkBudget)
    p.set_defaults(func=func, parser=p)  # parser: what a --config file goes through


def _experiment_config(args: argparse.Namespace) -> tuple[harness.ExperimentConfig, float]:
    if args.seed is None:
        raise ValueError("--seed is required (reproducibility contract)")
    kind = FRAME_KINDS[args.kind.upper()]
    budget = LinkBudget(**{name: getattr(args, opt) for opt, (name, _) in _BUDGET_OPTIONS.items()})
    param = {"awgn": args.ebn0, "bsc": args.p, "distance": args.distance}[args.channel]
    if args.channel == "distance":
        chan: harness.Channel = harness.DistanceChannel(param, budget)
    else:
        chan = {"awgn": harness.AwgnChannel, "bsc": harness.BscChannel}[args.channel](param)
    frames = args.frames
    if frames is None:
        frames = harness.frames_for_target_errors(chan, kind, args.uncoded)
    if frames > _MAX_FRAMES:
        raise ValueError(f"--frames must be at most {_MAX_FRAMES}, got {frames}")
    return harness.ExperimentConfig(
        channel=chan, frames=frames, master_seed=args.seed, frame_kind=kind, gamma=args.gamma,
        uncoded=args.uncoded, bit_offset=args.bit_offset), param


def _cmd_run(args: argparse.Namespace) -> int:
    cfg, param = _experiment_config(args)
    report = harness.run_link(cfg)
    with _output(args.out) as fp:
        harness.write_sweep_csv([(param, report)], fp)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg, _ = _experiment_config(args)
    rows = harness.sweep(cfg, args.sweep, args.sweep_param, jobs=args.jobs)
    with _output(args.out) as fp:
        harness.write_sweep_csv(rows, fp)
    return 0


def _cmd_sync_table(args: argparse.Namespace) -> int:
    kind = FRAME_KINDS[args.kind.upper()]
    gammas = _parse_gammas(args.gammas) if args.gammas else range(0, kind.preamble_bits + 1)
    rows = sync.tradeoff_table(kind, args.p, gammas)
    with _output(args.out) as fp:
        sync.write_tradeoff_csv(rows, fp)
    return 0


def _cmd_fifo(args: argparse.Namespace) -> int:
    if args.cycles < 1:
        raise ValueError(f"--cycles must be at least 1, got {args.cycles:g}")
    if args.cycles > _MAX_CYCLES:
        raise ValueError(f"--cycles must be at most {_MAX_CYCLES:g}, got {args.cycles}")
    if not args.cycles.is_integer():
        raise ValueError(f"--cycles must be a whole number, got {args.cycles}")
    cfg = elastic.FifoConfig(**{name: getattr(args, opt)
                                for opt, (name, _) in _FIFO_OPTIONS.items()})
    stats = elastic.simulate_fifo(cfg, int(args.cycles), args.pattern, args.seed)
    record = dataclasses.asdict(stats)
    with _output(args.out) as fp:
        if args.format == "json":
            fp.write(json.dumps(record, sort_keys=True) + "\n")
        else:
            fp.write(",".join(record) + "\n")
            fp.write(",".join("" if v is None else str(v) for v in record.values()) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a flag error for `main` to report on one line, as it reports
    config and domain errors, instead of printing usage and exiting; the
    subcommand parsers are of the same class."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gblink", description="60 GHz single-carrier gigabit link simulator",
        epilog="Give values such as -1e308, -inf or -1:3 as --flag=value, or they read as options.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one link experiment, CSV row out")
    _add_link_options(p_run, _cmd_run)

    p_sweep = sub.add_parser("sweep", help="run_link per parameter value, CSV out")
    _add_link_options(p_sweep, _cmd_sweep)
    p_sweep.add_argument("--sweep", type=_parse_values,
                         help="comma/space separated parameter values")
    p_sweep.add_argument("--sweep-param", dest="sweep_param", choices=("channel", "gamma"),
                         default="channel",
                         help="which knob the values drive (default %(default)s)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel workers (default %(default)s)")

    p_table = sub.add_parser("sync-table", help="miss/false-alarm trade-off table")
    p_table.add_argument("--kind", choices=_KINDS, default="p32",
                         help="frame format (default %(default)s)")
    p_table.add_argument("--p", type=float, default=1e-4,
                         help="channel error probability (default %(default)g)")
    p_table.add_argument("--gammas", help="LO:HI inclusive threshold range (default all)")
    p_table.set_defaults(func=_cmd_sync_table)

    p_fifo = sub.add_parser("fifo", help="dual-clock elastic buffer simulation")
    _add_field_options(p_fifo, _FIFO_OPTIONS, elastic.FifoConfig)
    p_fifo.add_argument("--cycles", type=float, default=1e6,
                        help=f"read-clock cycles, at most {_MAX_CYCLES:g} (default %(default)g)")
    p_fifo.add_argument("--pattern", choices=("continuous", "bursty"), default="continuous",
                        help="write pattern (default %(default)s)")
    p_fifo.add_argument("--seed", type=int, default=0,
                        help="bursty pattern seed (default %(default)s)")
    p_fifo.add_argument("--format", choices=("json", "csv"), default="json",
                        help="stats format (default %(default)s)")
    p_fifo.set_defaults(func=_cmd_fifo)

    for p in (p_run, p_sweep, p_table, p_fifo):
        p.add_argument("--out", default="-", help="output file (default stdout)")
        p.epilog = parser.epilog
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse argv; a --config file's values are the defaults of a second parse."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        args.parser.set_defaults(**_config_values(args.parser, args.config))
        args = parser.parse_args(argv)
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"gblink: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
