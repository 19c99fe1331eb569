"""Command-line front end: link runs, sweeps, sync trade-off tables, and
FIFO simulations, all emitting CSV (or JSON for fifo stats).

A config file (`--config`) holds `key = value` lines using the long option
names (dashes or underscores); precedence is defaults < config file <
explicit command-line flags.  `--seed` must be supplied one way or the other
so every published number is reproducible.  The process exits nonzero on any
invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys

from . import channel, elastic, harness, sync
from .channel import LinkBudget
from .framing import FRAME_KINDS


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _merge(args: argparse.Namespace, spec: dict[str, tuple]) -> dict:
    """Resolve option values: CLI flag, else config file, else default."""
    file_values = _parse_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(file_values) - set(spec))
    if unknown:
        raise ValueError(f"{args.config}: unknown key(s) {', '.join(unknown)}")
    out = {}
    for key, (convert, default) in spec.items():
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            out[key] = cli_val
        elif key in file_values:
            text = file_values[key]
            try:
                if key in _CHOICES and text not in _CHOICES[key]:
                    raise ValueError(text)
                out[key] = convert(text)
            except (ValueError, KeyError):
                raise ValueError(f"{args.config}: bad value for {key}: {text!r}") from None
        else:
            out[key] = default
    return out


def _parse_values(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.replace(",", " ").split())


def _parse_gammas(text: str) -> range:
    lo, _, hi = text.partition(":")
    first, last = int(lo), int(hi or lo)
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


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _to_bool(text: str) -> bool:
    return _BOOL[text.strip().lower()]


# link-budget option -> (LinkBudget field, help text); the defaults are the
# dataclass's own
_BUDGET_OPTIONS = {
    "tx_power": ("tx_power_dbm", "dBm"),
    "tx_gain": ("tx_gain_dbi", "dBi"),
    "rx_gain": ("rx_gain_dbi", "dBi"),
    "carrier_hz": ("carrier_hz", "Hz"),
    "bandwidth_hz": ("bandwidth_hz", "Hz"),
    "noise_figure": ("noise_figure_db", "dB"),
    "extra_loss": ("extra_loss_db", "dB, e.g. 15 for the blockage scenario"),
}

# argparse choices of the options a config file can also set
_CHOICES = {"kind": ("p32", "p64"), "channel": ("awgn", "bsc", "distance"),
            "sweep_param": ("channel", "gamma")}

_LINK_SPEC = {
    "kind": (str, "p32"),
    "channel": (str, "awgn"),
    "ebn0": (float, 8.0),
    "p": (float, 1e-4),
    "distance": (float, 10.0),
    "frames": (int, None),
    "gamma": (int, None),
    "seed": (int, None),
    "uncoded": (_to_bool, False),
    "bit_offset": (int, 0),
    **{opt: (float, getattr(LinkBudget, name)) for opt, (name, _) in _BUDGET_OPTIONS.items()},
}


def _add_link_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value file overriding defaults")
    p.add_argument("--kind", choices=_CHOICES["kind"], help="frame format (default p32)")
    p.add_argument("--channel", choices=_CHOICES["channel"],
                   help="channel model (default awgn)")
    p.add_argument("--ebn0", type=float, help="Eb/N0 in dB for the awgn channel")
    p.add_argument("--p", type=float, help="flip probability for the bsc channel")
    p.add_argument("--distance", type=float, help="Tx-Rx distance in m for the distance channel")
    p.add_argument("--frames", type=int,
                   help="frames per run; default auto-sizes for ~100 expected raw error "
                        f"events at the operating point, capped at {harness.FRAMES_CAP}")
    p.add_argument("--gamma", type=int, help="sync threshold (default per frame kind)")
    p.add_argument("--seed", type=int, help="master seed; required for every run")
    p.add_argument("--uncoded", action="store_const", const=True, default=None,
                   help="reference Eb to channel bits (code rate 1)")
    p.add_argument("--bit-offset", dest="bit_offset", type=int,
                   help="junk bits injected before the first frame (0-7)")
    for opt, (name, unit) in _BUDGET_OPTIONS.items():
        p.add_argument("--" + opt.replace("_", "-"), dest=opt, type=float,
                       help=f"{unit} (default {getattr(LinkBudget, name):g})")
    p.add_argument("--out", default="-", help="output file (default stdout)")


def _auto_frames(chan: harness.Channel, kind, uncoded: bool) -> int:
    """Smallest frame count giving ~100 expected raw error events, capped."""
    if isinstance(chan, harness.BscChannel):
        ber = chan.p
    else:
        ebn0_db, code_rate = harness.noise_point(chan, kind, uncoded)
        ber = channel.dbpsk_ber_theory(ebn0_db + 10 * math.log10(code_rate))
    return harness.frames_for_target_errors(kind, ber)


def _experiment_config(opts: dict) -> tuple[harness.ExperimentConfig, float]:
    if opts["seed"] is None:
        raise ValueError("--seed is required (reproducibility contract)")
    kind = FRAME_KINDS[opts["kind"].upper()]
    budget = LinkBudget(**{name: opts[opt] for opt, (name, _) in _BUDGET_OPTIONS.items()})
    if opts["channel"] == "awgn":
        chan: harness.Channel = harness.AwgnChannel(opts["ebn0"])
        param = opts["ebn0"]
    elif opts["channel"] == "bsc":
        chan = harness.BscChannel(opts["p"])
        param = opts["p"]
    else:
        chan = harness.DistanceChannel(opts["distance"], budget)
        param = opts["distance"]
    frames = opts["frames"]
    if frames is None:
        frames = _auto_frames(chan, kind, opts["uncoded"])
    cfg = harness.ExperimentConfig(
        channel=chan, frames=frames, master_seed=opts["seed"],
        frame_kind=kind, gamma=opts["gamma"],
        uncoded=opts["uncoded"], bit_offset=opts["bit_offset"])
    return cfg, param


def _cmd_run(args: argparse.Namespace) -> int:
    opts = _merge(args, _LINK_SPEC)
    cfg, param = _experiment_config(opts)
    report = harness.run_link(cfg)
    with _output(args.out) as fp:
        harness.write_sweep_csv([(param, report)], fp)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = dict(_LINK_SPEC)
    spec["sweep"] = (_parse_values, None)
    spec["sweep_param"] = (str, "channel")
    spec["jobs"] = (int, 1)
    opts = _merge(args, spec)
    cfg, _ = _experiment_config(opts)
    rows = harness.sweep(cfg, opts["sweep"], opts["sweep_param"], jobs=opts["jobs"])
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
    if not math.isfinite(args.cycles):
        raise ValueError(f"--cycles must be finite, got {args.cycles}")
    cfg = elastic.FifoConfig(
        capacity_bytes=args.capacity, upper_threshold=args.upper,
        lower_threshold=args.lower, write_clock_hz=args.write_hz,
        read_clock_hz=args.read_hz, resume_latency_cycles=args.latency)
    stats = elastic.simulate_fifo(cfg, int(args.cycles), args.pattern, args.seed)
    record = dataclasses.asdict(stats)
    with _output(args.out) as fp:
        if args.format == "json":
            fp.write(json.dumps(record, sort_keys=True) + "\n")
        else:
            fp.write(",".join(record) + "\n")
            fp.write(",".join(str(v) for v in record.values()) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gblink",
        description="60 GHz single-carrier gigabit link simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one link experiment, CSV row out")
    _add_link_options(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run_link per parameter value, CSV out")
    _add_link_options(p_sweep)
    p_sweep.add_argument("--sweep", type=_parse_values,
                         help="comma/space separated parameter values")
    p_sweep.add_argument("--sweep-param", dest="sweep_param", choices=_CHOICES["sweep_param"],
                         help="which knob the values drive (default channel)")
    p_sweep.add_argument("--jobs", type=int, help="parallel workers (default 1)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_table = sub.add_parser("sync-table", help="miss/false-alarm trade-off table")
    p_table.add_argument("--kind", choices=_CHOICES["kind"], default="p32")
    p_table.add_argument("--p", type=float, default=1e-4, help="channel error probability")
    p_table.add_argument("--gammas", help="LO:HI inclusive threshold range (default all)")
    p_table.add_argument("--out", default="-")
    p_table.set_defaults(func=_cmd_sync_table)

    p_fifo = sub.add_parser("fifo", help="dual-clock elastic buffer simulation")
    p_fifo.add_argument("--capacity", type=int, default=4096)
    p_fifo.add_argument("--upper", type=int, default=3072)
    p_fifo.add_argument("--lower", type=int, default=1024)
    p_fifo.add_argument("--write-hz", dest="write_hz", type=float, default=125e6)
    p_fifo.add_argument("--read-hz", dest="read_hz", type=float, default=100.54e6)
    p_fifo.add_argument("--latency", type=int, default=64,
                        help="stop-signal turnaround in write cycles")
    p_fifo.add_argument("--cycles", type=float, default=1e6, help="read-clock cycles")
    p_fifo.add_argument("--pattern", choices=["continuous", "bursty"], default="continuous")
    p_fifo.add_argument("--seed", type=int, default=0)
    p_fifo.add_argument("--format", choices=["json", "csv"], default="json")
    p_fifo.add_argument("--out", default="-")
    p_fifo.set_defaults(func=_cmd_fifo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"gblink: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
