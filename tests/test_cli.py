"""CLI surface tests: subcommands, config files, determinism, exit codes."""

import argparse
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gblink import cli, harness, sync
from gblink.channel import LinkBudget
from gblink.elastic import FifoConfig


def run_cli(args):
    return cli.main(args)


def test_sync_table_output(tmp_path):
    out = tmp_path / "table.csv"
    assert run_cli(["sync-table", "--kind", "p32", "--p", "1e-4",
                    "--gammas", "27:29", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "gamma,p_miss,p_false_single,p_false_double"
    assert len(lines) == 4
    row = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert row["gamma"] == "28"
    assert float(row["p_miss"]) == sync.p_miss(32, 28, 1e-4)
    assert float(row["p_false_single"]) == sync.p_false(32, 28)[0]


def test_sync_table_defaults_full_range(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli(["sync-table", "--kind", "p64", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 66  # header + 0..64


def test_run_emits_csv_row(tmp_path):
    out = tmp_path / "run.csv"
    assert run_cli(["run", "--channel", "bsc", "--p", "1e-3", "--frames", "20",
                    "--seed", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "parameter,raw_ber,coded_ber,fer,sync_losses"
    fields = lines[1].split(",")
    assert float(fields[0]) == 1e-3
    assert 0 <= float(fields[1]) < 0.01


def test_auto_sized_run_sees_frame_errors(tmp_path, capsys):
    """An auto-sized coded P32 run at Eb/N0 8 dB, where long runs give a FER
    near 0.0018, runs until its row rests on frame errors: here the cap, with
    38 of them, which a note on stderr says."""
    out = tmp_path / "run.csv"
    assert run_cli(["run", "--seed", "1", "--ebn0", "8", "--out", str(out)]) == 0
    row = dict(zip(*(line.split(",") for line in out.read_text().strip().splitlines())))
    assert float(row["fer"]) > 0 and float(row["coded_ber"]) > 0
    assert capsys.readouterr().err == \
        "gblink: note: row 8.0 stopped at the 20000-frame cap with 38 frame errors\n"


_BSC = ["--seed", "1", "--channel", "bsc"]
_CLEAN_NOTE = "gblink: note: row 0.0 stopped at the 200-frame cap with 0 frame errors; FER < 0.015 at 95%\n"


@pytest.mark.parametrize("argv,cap,err", [
    (["run", "--p", "0"] + _BSC, 200, _CLEAN_NOTE),
    (["run", "--p", "0", "--uncoded"] + _BSC, 200,
     "gblink: note: row 0.0 stopped at the 200-frame cap with 0 raw errors; raw BER < 7.21e-06 at 95%\n"),
    (["run", "--p", "1"] + _BSC, 200, ""),
    (["run", "--p", "1"] + _BSC, 99,
     "gblink: note: row 1.0 stopped at the 99-frame cap with 99 frame errors\n"),
    (["run", "--p", "0", "--frames", "200"] + _BSC, 200, ""),
    (["sweep", "--sweep", "1,0,1e-3"] + _BSC, 200,
     _CLEAN_NOTE + _CLEAN_NOTE.replace("row 0.0", "row 0.001")),
], ids=["clean", "clean-uncoded", "target-reached", "one-short", "fixed-frames", "sweep"])
def test_cap_note(argv, cap, err, capsys):
    """An auto-sized row that stops at the cap short of 100 errors still prints, exit 0,
    with one stderr note; with no errors the rule of three bounds its rate at 95%.  At
    p = 1 every frame is a frame error, so a 200-frame cap stops at 100 frames."""
    with mock.patch.object(harness, "FRAMES_CAP", cap):
        assert run_cli(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == err
    assert len(captured.out.splitlines()) == 1 + (3 if argv[0] == "sweep" else 1)


def test_seed_is_required(capsys):
    rc = run_cli(["run", "--channel", "awgn", "--ebn0", "8", "--frames", "5"])
    assert rc == 2
    assert "--seed" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path):
    conf = tmp_path / "link.conf"
    conf.write_text(
        "# experiment defaults\n"
        "channel = bsc\n"
        "p = 1e-3\n"
        "frames = 10\n"
        "seed = 5\n"
        "bit-offset = 3\n")
    out = tmp_path / "a.csv"
    assert run_cli(["run", "--config", str(conf), "--out", str(out)]) == 0
    assert float(out.read_text().splitlines()[1].split(",")[0]) == 1e-3


def test_cli_flag_overrides_config(tmp_path):
    conf = tmp_path / "link.conf"
    conf.write_text("channel = bsc\np = 1e-3\nframes = 10\nseed = 5\n")
    out = tmp_path / "b.csv"
    assert run_cli(["run", "--config", str(conf), "--p", "2e-3", "--out", str(out)]) == 0
    assert float(out.read_text().splitlines()[1].split(",")[0]) == 2e-3


def test_bad_config_line(tmp_path, capsys):
    conf = tmp_path / "broken.conf"
    conf.write_text("frames 10\n")
    assert run_cli(["run", "--config", str(conf), "--seed", "1"]) == 2
    assert f"{conf}:1: expected 'key = value'" in capsys.readouterr().err


@pytest.mark.parametrize("line,named", [("ebno = 2", ["unknown key ebno"]),
                                        ("uncoded = maybe", ["uncoded", "maybe"])],
                         ids=["unknown-key", "bad-value"])
def test_config_error_names_key(line, named, tmp_path, capsys):
    conf = tmp_path / "link.conf"
    conf.write_text(f"channel = bsc\nframes = 5\n{line}\n")
    assert run_cli(["run", "--config", str(conf), "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gblink: error:") and all(word in err for word in named)


@pytest.mark.parametrize("command,line", [(["run"], "kind = p99"),
                                          (["run"], "channel = bsx"),
                                          (["sweep", "--sweep", "1e-3"], "sweep_param = ebn0")],
                         ids=["kind", "channel", "sweep_param"])
def test_config_value_outside_choices(command, line, tmp_path, capsys):
    conf = tmp_path / "link.conf"
    conf.write_text(f"frames = 5\n{line}\n")
    assert run_cli(command + ["--config", str(conf), "--seed", "1"]) == 2
    key, value = (word.strip() for word in line.split("="))
    err = capsys.readouterr().err
    assert err.startswith("gblink: error:") and key in err and value in err


def test_sweep_deterministic_files(tmp_path):
    args = ["sweep", "--channel", "bsc", "--sweep", "1e-3,2e-3", "--frames", "25",
            "--seed", "11"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_gamma(tmp_path):
    out = tmp_path / "g.csv"
    assert run_cli(["sweep", "--channel", "bsc", "--p", "1e-3", "--sweep", "26,28,30",
                    "--sweep-param", "gamma", "--frames", "10", "--seed", "2",
                    "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 4


@pytest.mark.parametrize("text", ["1,,2", ",1", "1,2,", "1, ,2", ""])
def test_empty_sweep_item_rejected(text, tmp_path, capsys):
    """An empty item in --sweep is a usage error, not a value dropped in silence."""
    args = ["sweep", "--channel", "bsc", "--frames", "5", "--seed", "1"]
    _assert_usage_error(args + [f"--sweep={text}"], capsys,
                        f"argument --sweep: empty item in {text!r}")
    conf = tmp_path / "sweep.conf"
    conf.write_text(f"sweep = {text}\n")
    _assert_clean_error(args + ["--config", str(conf)], capsys)


@pytest.mark.parametrize("text,item", [("1,x", "x"), ("1 2e", "2e"), ("nan,1e3,0x10", "0x10")])
def test_non_numeric_sweep_item_rejected(text, item, tmp_path, capsys):
    """A --sweep item that is not a number is named in the error."""
    args = ["sweep", "--channel", "bsc", "--frames", "5", "--seed", "1"]
    _assert_usage_error(args + [f"--sweep={text}"], capsys,
                        f"argument --sweep: not a number: {item!r}")
    conf = tmp_path / "sweep.conf"
    conf.write_text(f"sweep = {text}\n")
    _assert_clean_error(args + ["--config", str(conf)], capsys)


@pytest.mark.parametrize("argv,message", [
    (["run", "--bogus"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
    (["nope"], "argument command: invalid choice: 'nope'"),
    (["fifo", "--pattern", "zigzag"], "argument --pattern: invalid choice: 'zigzag'"),
    (["run", "--frames", "many"], "argument --frames: invalid int value: 'many'"),
], ids=["unknown-flag", "no-command", "unknown-command", "bad-choice", "bad-int"])
def test_flag_error_is_one_line(argv, message, capsys):
    """A flag argparse refuses is reported like any other error: one line, return code 2."""
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"gblink: error: {message}")
    assert captured.err.count("\n") == 1 and "usage:" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text", ["1,2", "1 2", "1, 2", " 1 ,2 "])
def test_sweep_values_separated_by_commas_or_spaces(text):
    assert cli.parse_args(["sweep", "--sweep", text]).sweep == (1.0, 2.0)


def test_sweep_requires_values(capsys):
    assert run_cli(["sweep", "--channel", "awgn", "--frames", "5", "--seed", "1"]) == 2


def test_fifo_json(tmp_path):
    out = tmp_path / "fifo.json"
    assert run_cli(["fifo", "--cycles", "20000", "--out", str(out)]) == 0
    stats = json.loads(out.read_text())
    assert stats["overflow_events"] == 0
    assert stats["underflow_events"] == 0
    assert stats["bytes_written"] == stats["output_bytes"] + stats["final_occupancy"]


def test_fifo_csv(tmp_path):
    """A run that never primes leaves its after-priming minimum empty."""
    out = tmp_path / "fifo.csv"
    for cycles, unprimed in [("5000", False), ("1", True)]:
        assert run_cli(["fifo", "--cycles", cycles, "--format", "csv", "--out", str(out)]) == 0
        header, row = out.read_text().strip().splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert "max_occupancy" in record
        assert len(header.split(",")) == len(row.split(","))
        assert (record["min_occupancy_after_priming"] == "") == unprimed


def test_fifo_invalid_thresholds(capsys):
    assert run_cli(["fifo", "--lower", "0", "--cycles", "100"]) == 2


def test_invalid_gamma_exits_nonzero(capsys):
    """The error names the threshold and its allowed range, and any other bad
    option value together with its option."""
    for argv, message in [
        (["run", "--seed", "1", "--gamma", "99", "--frames", "2"],
         "gamma must be in [0, 32] for P32, got 99"),
        (["run", "--seed", "1", "--gamma", "65", "--kind", "p64", "--frames", "2"],
         "gamma must be in [0, 64] for P64, got 65"),
        (["sync-table", "--gammas", "40"], "gamma must be in [0, 32], got 40"),
        (["sync-table", "--kind", "p64", "--gammas=-1:3"], "gamma must be in [0, 64], got -1"),
        (["sweep", "--seed", "1", "--frames", "3", "--sweep-param", "gamma", "--sweep", "1e300"],
         "gamma must be in [0, 32] for P32, got 1000000000000000052504760255204420248704468581"),
        (["run", "--seed", "-1", "--frames", "5"], "seed must be non-negative, got -1"),
        (["sweep", "--seed", "-1", "--frames", "5", "--sweep", "8"],
         "seed must be non-negative, got -1"),
        (["fifo", "--seed", "-1", "--cycles", "100"], "seed must be non-negative, got -1"),
        (["sync-table", "--gammas", "5:x"], "--gammas 5:x: expected LO or LO:HI integers"),
        # 4 pi d / wavelength underflows to 0
        (["run", "--channel", "distance", "--carrier-hz", "1e-300", "--seed", "1", "--frames", "2"],
         "path loss is -inf dB at distance 10.0 m, carrier 1e-300 Hz"),
    ]:
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"gblink: error: {message}") and captured.out == ""


def run_python(*args):
    # the child does not inherit pytest's `pythonpath`, so point it at src/
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_module(*argv):
    return run_python("-m", *argv)


def test_cli_import_loads_no_process_pool():
    """Only a sweep with more than one job starts a process pool, so the
    CLI's start does not import `multiprocessing`."""
    proc = run_python("-c", "import sys, gblink.cli; print('multiprocessing' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_console_script_entry_point():
    proc = run_module("gblink.cli", "sync-table", "--gammas", "28:28")
    assert proc.returncode == 0
    assert proc.stdout.startswith("gamma,")


def test_package_runs_as_module():
    proc = run_module("gblink", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: gblink ")


def test_uncoded_flag(tmp_path):
    out = tmp_path / "u.csv"
    assert run_cli(["run", "--channel", "awgn", "--ebn0", "8", "--frames", "200",
                    "--seed", "4", "--uncoded", "--out", str(out)]) == 0
    raw_ber = float(out.read_text().splitlines()[1].split(",")[1])
    assert 5e-4 < raw_ber < 1.5e-3  # near the 8 dB reference of ~9.1e-4


def test_distance_channel(tmp_path):
    out = tmp_path / "d.csv"
    assert run_cli(["run", "--channel", "distance", "--distance", "30", "--frames", "10",
                    "--seed", "8", "--out", str(out)]) == 0
    fields = out.read_text().splitlines()[1].split(",")
    assert float(fields[0]) == 30.0
    assert float(fields[1]) == 0.0  # 30 m with defaults is loss-free


@pytest.mark.parametrize("argv,frames", [
    (["--ebn0", "10"], 20000),
    (["--ebn0", "10", "--uncoded"], 2500),
    (["--ebn0", "10", "--kind", "p64"], 20000),
    (["--channel", "distance", "--distance", "30", "--extra-loss", "15"], 20000),
    (["--channel", "distance", "--distance", "30"], 20000),
    (["--channel", "bsc", "--p", "1e-5"], 20000),
    (["--channel", "bsc", "--p", "1e-3"], 20000),
], ids=["awgn-coded", "awgn-uncoded", "awgn-coded-p64", "distance", "distance-capped",
        "bsc", "bsc-1e-3"])
def test_auto_frames_pinned(argv, frames):
    """Without --frames, the run stops at the first FRAMES_CAP >> k frames that count
    100 frame errors (raw errors with --uncoded); these coded points count fewer at the cap."""
    cfg, _ = cli._experiment_config(cli.parse_args(["run", "--seed", "1"] + argv))
    assert cfg.frames is None
    assert harness.run_link(cfg).frames == frames


def _assert_clean_error(args, capsys):
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("gblink: error:")
    assert captured.out == ""


def _assert_usage_error(args, capsys, message):
    """argparse's own rejection: `main` returns 2 with one `gblink: error:` line naming
    it on stderr, no usage block, and nothing on stdout."""
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"gblink: error: {message}\n" and captured.out == ""


def test_nan_ebn0_rejected(capsys):
    _assert_clean_error(["run", "--ebn0", "nan", "--frames", "5", "--seed", "1"], capsys)
    _assert_clean_error(["run", "--ebn0", "nan", "--seed", "1"], capsys)


@pytest.mark.parametrize("argv", [
    ["run", "--ebn0", "4000", "--seed", "1", "--frames", "5"],
    ["sweep", "--sweep", "4000", "--seed", "1", "--frames", "3"],
    ["run", "--channel", "distance", "--distance", "1e-200", "--seed", "1", "--frames", "5"],
    ["run", "--ebn0", "4000", "--seed", "1"],
], ids=["run", "sweep", "distance", "auto-frames"])
def test_overflowing_ebn0_runs_noiseless(argv, capsys):
    """An Eb/N0 whose ratio overflows a float runs like +inf: no noise."""
    assert run_cli(argv) == 0
    fields = capsys.readouterr().out.splitlines()[1].split(",")
    assert [float(v) for v in fields[1:]] == [0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("argv", [
    ["run", "--seed", "1", "--channel", "bsc", "--p", "1e-320"],
    ["run", "--seed", "1", "--ebn0", "28.9"],
], ids=["bsc", "awgn"])
def test_subnormal_ber_auto_frames_runs(argv, capsys):
    """A channel whose BER is subnormal runs the capped frame count without --frames."""
    assert run_cli(argv) == 0
    fields = capsys.readouterr().out.splitlines()[1].split(",")
    assert [float(v) for v in fields[1:]] == [0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("argv", [
    ["run", "--ebn0", "-4000", "--seed", "1", "--frames", "5"],
    ["run", "--ebn0", "-4000", "--seed", "1"],
    ["run", "--channel", "distance", "--distance", "1e200", "--seed", "1", "--frames", "5"],
], ids=["run", "auto-frames", "distance"])
def test_underflowing_ebn0_rejected(argv, capsys):
    """An Eb/N0 whose ratio underflows has no finite noise deviation."""
    _assert_clean_error(argv, capsys)


def test_very_low_ebn0_runs(capsys):
    assert run_cli(["run", "--ebn0", "-3000", "--seed", "1", "--frames", "5"]) == 0
    raw_ber = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
    assert 0.45 < raw_ber < 0.55


def test_minus_inf_ebn0_rejected(capsys):
    _assert_clean_error(["run", "--ebn0=-inf", "--frames", "5", "--seed", "1"], capsys)


def test_nan_distance_rejected(capsys):
    _assert_clean_error(["run", "--channel", "distance", "--distance", "nan",
                         "--frames", "5", "--seed", "1"], capsys)


@pytest.mark.parametrize("flag", ["--tx-power=nan", "--tx-gain=inf", "--noise-figure=nan",
                                  "--carrier-hz=0", "--extra-loss=inf"])
def test_bad_link_budget_rejected(flag, capsys):
    _assert_clean_error(["run", "--channel", "distance", "--distance", "30", "--frames", "50",
                         "--seed", "1", flag], capsys)


@pytest.mark.parametrize("value", ["28.7", "inf"])
def test_non_integral_gamma_sweep_rejected(value, capsys):
    _assert_clean_error(["sweep", "--channel", "bsc", "--p", "1e-3", "--frames", "20",
                         "--seed", "1", "--sweep-param", "gamma", "--sweep", value], capsys)


def test_inverted_gamma_range_rejected(capsys):
    _assert_clean_error(["sync-table", "--gammas", "30:20"], capsys)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_nonpositive_jobs_rejected(jobs, capsys):
    _assert_clean_error(["sweep", "--channel", "bsc", "--sweep", "1e-3", "--frames", "5",
                         "--seed", "1", "--jobs", jobs], capsys)


def test_link_budget_options_map_every_field():
    """Each LinkBudget field has one option, and the defaults are its own."""
    fields = sorted(f.name for f in dataclasses.fields(LinkBudget))
    assert sorted(name for name, _ in cli._BUDGET_OPTIONS.values()) == fields
    args = cli.parse_args(["run", "--seed", "1", "--channel", "distance",
                           "--frames", "1", "--extra-loss", "15"])
    cfg, _ = cli._experiment_config(args)
    assert cfg.channel.budget == LinkBudget(extra_loss_db=15.0)


def test_bandwidth_option_removed(tmp_path, capsys):
    """The noise bandwidth cancels out of Es/N0, so neither a flag nor a config key sets it."""
    args = ["run", "--channel", "distance", "--frames", "5", "--seed", "1"]
    _assert_usage_error(args + ["--bandwidth-hz", "2e9"], capsys,
                        "unrecognized arguments: --bandwidth-hz 2e9")
    conf = tmp_path / "link.conf"
    conf.write_text("bandwidth_hz = 2e9\n")
    _assert_clean_error(args + ["--config", str(conf)], capsys)


def test_fifo_options_map_every_field():
    """Each FifoConfig field has one option, and the defaults are its own."""
    fields = sorted(f.name for f in dataclasses.fields(FifoConfig))
    assert sorted(name for name, _ in cli._FIFO_OPTIONS.values()) == fields
    args = cli.parse_args(["fifo"])
    assert FifoConfig(**{name: getattr(args, opt)
                         for opt, (name, _) in cli._FIFO_OPTIONS.items()}) == FifoConfig()
    args = cli.parse_args(["fifo", "--lower", "512", "--read-hz", "90e6"])
    assert (args.lower, args.read_hz) == (512, 90e6)


def _subparser(command):
    [commands] = [a for a in cli.build_parser()._actions if a.dest == "command"]
    return commands.choices[command]


def _config_options(command):
    """The actions of a subcommand that a config file can also set."""
    return [a for a in _subparser(command)._actions if a.dest not in ("help", "config", "out")]


def _non_default_text(action):
    """A valid value other than the default, as written on a command line."""
    if action.choices is not None:
        return next(c for c in action.choices if c != action.default)
    return {float: "0.25", int: "3", cli._parse_values: "1e-3, 2e-3"}[action.type]


@pytest.mark.parametrize("command,dest", [(c, a.dest) for c in ("run", "sweep")
                                          for a in _config_options(c)])
def test_config_key_parses_like_its_flag(command, dest, tmp_path):
    """A config value is converted and checked exactly like its flag."""
    [action] = [a for a in _config_options(command) if a.dest == dest]
    if action.nargs == 0:
        flag, text = [action.option_strings[0]], "true"
    else:
        text = _non_default_text(action)
        flag = [action.option_strings[0], text]
    conf = tmp_path / "opt.conf"
    conf.write_text(f"{dest} = {text}\n")
    by_flag = vars(cli.parse_args([command] + flag))
    by_config = vars(cli.parse_args([command, "--config", str(conf)]))
    assert by_flag[dest] != action.default
    for ns in (by_flag, by_config):
        del ns["config"], ns["parser"]
    assert by_config == by_flag


@pytest.mark.parametrize("command", ["run", "sweep", "fifo"])
def test_help_shows_defaults(command):
    """--help names the default of every option that has one."""
    parser = _subparser(command)
    text = " ".join(parser.format_help().split())
    for action in parser._actions:
        if action.default in (None, argparse.SUPPRESS) or action.dest == "out":
            continue
        default = f"{action.default:g}" if isinstance(action.default, float) else action.default
        assert f"(default {default})" in text, action.dest


def test_help_says_how_to_pass_dash_values(capsys):
    """argparse takes -1e308 after a flag for an option; --flag=value passes it, as --help says."""
    parsers = [cli.build_parser()] + [_subparser(c) for c in ("run", "sweep", "sync-table", "fifo")]
    assert all("--flag=value" in " ".join(p.format_help().split()) for p in parsers)
    assert cli.parse_args(["run", "--ebn0=-1e308"]).ebn0 == -1e308
    _assert_usage_error(["run", "--ebn0", "-1e308", "--seed", "1"], capsys,
                        "argument --ebn0: expected one argument")


def test_infinite_fifo_cycles_rejected(capsys):
    _assert_clean_error(["fifo", "--cycles", "inf"], capsys)


def test_fractional_fifo_cycles_rejected(capsys):
    assert run_cli(["fifo", "--cycles", "2.7"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "gblink: error: --cycles must be a whole number, got 2.7\n"
    assert captured.out == ""


@pytest.mark.parametrize("cycles,shown", [("0", "0"), ("-3", "-3")])
def test_nonpositive_fifo_cycles_rejected(cycles, shown, capsys):
    """The lower bound is checked by the CLI, which names the flag."""
    assert run_cli(["fifo", f"--cycles={cycles}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"gblink: error: --cycles must be at least 1, got {shown}\n"
    assert captured.out == ""


@pytest.mark.parametrize("cycles,shown", [
    ("1e30", "1e+30"),
    ("100000000001", "100000000001.0"),
    # past 2**53 the float parser rounds; the count is refused, not rounded
    ("9007199254740993", "9007199254740992.0"),
])
def test_fifo_cycles_bounded(cycles, shown, capsys, monkeypatch):
    """A cycle count above 1e11 is refused before any simulation starts."""
    def never(*args):
        raise AssertionError("simulate_fifo ran")
    monkeypatch.setattr(cli.elastic, "simulate_fifo", never)
    assert run_cli(["fifo", "--cycles", cycles]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"gblink: error: --cycles must be at most 1e+11, got {shown}\n"
    assert captured.out == ""
    assert "at most 1e+11" in " ".join(_subparser("fifo").format_help().split())


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_frames_bounded(command, capsys, monkeypatch):
    """A frame count above the memory bound is refused before any link runs; the bound
    itself is allowed."""
    bound = cli.parse_args([command, "--seed", "1", "--frames", "250000"])
    assert cli._experiment_config(bound)[0].frames == 250000

    def never(*args):
        raise AssertionError("run_link ran")
    monkeypatch.setattr(cli.harness, "run_link", never)
    args = [command, "--channel", "bsc", "--p", "1e-3", "--frames", "99999999999", "--seed", "1"]
    assert run_cli(args + (["--sweep", "1e-3"] if command == "sweep" else [])) == 2
    captured = capsys.readouterr()
    assert captured.err == "gblink: error: --frames must be at most 250000, got 99999999999\n"
    assert captured.out == ""
    assert "at most 250000" in " ".join(_subparser(command).format_help().split())


def test_bad_fifo_clocks_rejected(capsys):
    _assert_clean_error(["fifo", "--read-hz", "inf", "--cycles", "100"], capsys)
    _assert_clean_error(["fifo", "--write-hz", "nan", "--cycles", "100"], capsys)
    _assert_clean_error(["fifo", "--write-hz", "1e-3", "--cycles", "100"], capsys)


# boundary values: signed zeros, subnormals, the float range's ends, nan, infinities,
# non-integers and empty text; the largest --cycles here that the CLI accepts is 30
_FLOATS = ["0", "-0", "5e-324", "-5e-324", "1e308", "-1e308", "nan", "inf", "-inf",
           "1e-3", "0.5", "2.5", "12", "30", ""]
_INTS = ["0", "-0", "-1", "1", "3", "20", "2.5", "1e3", "nan", ""]  # a frame count <= 20


def _fuzz_value(action):
    """Argument text for one option, drawn by the option's type."""
    if action.dest == "jobs":
        return st.sampled_from(["1", "0", "-3", "2.5"])  # never a process pool
    if action.choices is not None:
        return st.sampled_from([*action.choices, "p99"])
    if action.type is cli._parse_values:
        return st.builds(lambda items, sep: sep.join(items),
                         st.lists(st.sampled_from(_FLOATS), max_size=3),
                         st.sampled_from([",", " ", ", "]))
    if action.dest == "gammas":
        ints = st.sampled_from(_INTS + ["x"])
        return ints | st.builds(lambda lo, hi: f"{lo}:{hi}", ints, ints)
    return st.sampled_from({float: _FLOATS, int: _INTS}[action.type])


def _check_output(command, text):
    """Exit 0 prints finite numbers, each within its range."""
    if command == "fifo":
        if text.startswith("{"):
            record = json.loads(text)
        else:
            header, row = text.splitlines()
            record = {k: int(v) if v else None for k, v in zip(header.split(","), row.split(","))}
        assert all(v is None or (isinstance(v, int) and v >= 0) for v in record.values())
        assert record["bytes_written"] == record["output_bytes"] + record["final_occupancy"]
        return
    header, *rows = text.splitlines()
    assert rows
    for row in rows:
        first, *rates, last = row.split(",")
        assert all(0 <= float(r) <= 1 for r in rates)
        if command == "sync-table":
            assert header == "gamma,p_miss,p_false_single,p_false_double"
            assert 0 <= int(first) <= 64
            assert 0 <= float(last) <= 1
        else:
            assert header == "parameter,raw_ber,coded_ber,fer,sync_losses"
            assert not math.isnan(float(first)) and int(last) >= 0  # the parameter may be inf


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cli_boundary_fuzz(data):
    """Boundary values for the real flags of every subcommand, on the command line or
    in a --config file, in process: each command returns 0 with finite, in-range numbers
    or 2 with one `gblink: error:` line and nothing on stdout.  Runs are small:
    --frames <= 20, and the auto-sized count is capped at 20."""
    command = data.draw(st.sampled_from(["run", "sweep", "sync-table", "fifo"]))
    options = _config_options(command)
    values = [a for a in options if a.dest == "sweep"]  # always drawn: a sweep needs values
    others = [a for a in options if a.dest != "sweep"]
    actions = values + data.draw(st.lists(st.sampled_from(others), unique_by=lambda a: a.dest,
                                          max_size=5))
    argv, lines, texts = [command], [], {}
    for action in actions:
        if command in ("run", "sweep") and data.draw(st.booleans()):  # a --config line
            bools = st.sampled_from(["true", "no", "1", "maybe"])
            texts[action.dest] = data.draw(bools if action.nargs == 0 else _fuzz_value(action))
            lines.append(f"{action.dest} = {texts[action.dest]}\n")
        elif action.nargs == 0:
            argv.append(action.option_strings[0])
        else:
            texts[action.dest] = data.draw(_fuzz_value(action))
            argv.append(f"{action.option_strings[0]}={texts[action.dest]}")
    if command in ("run", "sweep") and "seed" not in texts:
        argv.append("--seed=1")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(harness, "FRAMES_CAP", 20), \
            redirect_stdout(out), redirect_stderr(err):
        if lines:
            Path(tmp, "gblink.conf").write_text("".join(lines))
            argv += ["--config", str(Path(tmp, "gblink.conf"))]
        code = cli.main(argv)
    assert code in (0, 2), (argv, lines, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", (argv, lines)
        assert err.getvalue().startswith("gblink: error:"), (argv, lines, err.getvalue())
        assert err.getvalue().count("\n") == 1, (argv, lines, err.getvalue())
    else:
        _check_output(command, out.getvalue())
    if not all(item.split() for item in texts.get("sweep", "1").split(",")):
        assert code == 2, (argv, lines)
