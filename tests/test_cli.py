"""CLI surface tests: subcommands, config files, determinism, exit codes."""

import json
import subprocess
import sys

from gblink import cli, sync


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
    assert "expected" in capsys.readouterr().err


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
    out = tmp_path / "fifo.csv"
    assert run_cli(["fifo", "--cycles", "5000", "--format", "csv", "--out", str(out)]) == 0
    header, row = out.read_text().strip().splitlines()
    assert "max_occupancy" in header.split(",")
    assert len(header.split(",")) == len(row.split(","))


def test_fifo_invalid_thresholds(capsys):
    assert run_cli(["fifo", "--lower", "0", "--cycles", "100"]) == 2


def test_invalid_gamma_exits_nonzero(capsys):
    assert run_cli(["run", "--seed", "1", "--gamma", "99", "--frames", "2"]) == 2


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gblink.cli", "sync-table", "--gammas", "28:28"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("gamma,")


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


def _assert_clean_error(args, capsys):
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("gblink: error:")
    assert captured.out == ""


def test_nan_ebn0_rejected(capsys):
    _assert_clean_error(["run", "--ebn0", "nan", "--frames", "5", "--seed", "1"], capsys)
    _assert_clean_error(["run", "--ebn0", "nan", "--seed", "1"], capsys)


def test_minus_inf_ebn0_rejected(capsys):
    _assert_clean_error(["run", "--ebn0=-inf", "--frames", "5", "--seed", "1"], capsys)


def test_nan_distance_rejected(capsys):
    _assert_clean_error(["run", "--channel", "distance", "--distance", "nan",
                         "--frames", "5", "--seed", "1"], capsys)


def test_infinite_fifo_cycles_rejected(capsys):
    _assert_clean_error(["fifo", "--cycles", "inf"], capsys)
