"""Golden CSV pins: seeded CLI runs must reproduce these bytes exactly.

The AWGN and distance rows were re-pinned when the DBPSK channel began to draw
the detector's errors around the large noise samples only, and the BSC rows
when `channel.bsc` began to draw the gaps between flips, and every row when
a run began to draw all its streams from one SeedSequence, each changed row
within three standard errors of its old one (see CHANGES.md).  So any change
to the random streams, the error sampling or the error accounting shows up
here.  The cases cover RS corrections and failures on both frame kinds, a
run of 2.3M channel bits that spans 14 gap chunks, the distance channel, and a
gamma sweep with sync losses.
"""

import pytest

from gblink import cli

HEADER = "parameter,raw_ber,coded_ber,fer,sync_losses\r\n"

CASES = {
    "criterion10": (
        ["sweep", "--channel", "awgn", "--sweep", "6,8,10", "--frames", "120",
         "--seed", "1010", "--uncoded"],
        "6.0,0.009671474358974358,0.009688807531380753,0.9666666666666667,0\r\n"
        "8.0,0.0009375,0.0,0.0,0\r\n"
        "10.0,2.0032051282051282e-05,0.0,0.0,0\r\n"),
    "bsc-p64-rs-failures": (
        ["sweep", "--channel", "bsc", "--kind", "p64", "--sweep", "1e-3,2e-3,4e-3",
         "--frames", "300", "--seed", "7", "--bit-offset", "5"],
        "0.001,0.000999839124839125,0.0,0.0,0\r\n"
        "0.002,0.001984395109395109,0.00015341701534170153,0.04666666666666667,0\r\n"
        "0.004,0.004040379665379666,0.0031520223152022315,0.7066666666666667,0\r\n"),
    "awgn-coded-sweep": (
        ["sweep", "--channel", "awgn", "--sweep", "5,6,7,12", "--frames", "800",
         "--seed", "3", "--bit-offset", "3"],
        "5.0,0.026950721153846155,0.026944952928870294,1.0,1\r\n"
        "6.0,0.012751802884615384,0.012775889121338911,1.0,0\r\n"
        "7.0,0.004954927884615385,0.002800078451882845,0.42125,0\r\n"
        "12.0,0.0,0.0,0.0,0\r\n"),
    "awgn-noise-chunk-boundary": (
        ["run", "--channel", "awgn", "--ebn0", "7", "--frames", "1100", "--seed", "5",
         "--bit-offset", "2"],
        "7.0,0.005005681818181818,0.002885127424876379,0.4381818181818182,0\r\n"),
    "distance-p64": (
        ["sweep", "--channel", "distance", "--kind", "p64", "--sweep", "150,250,400",
         "--frames", "200", "--seed", "23"],
        "150.0,1.6891891891891892e-05,0.0,0.0,0\r\n"
        "250.0,0.015480212355212354,0.01547463389121339,1.0,0\r\n"
        "400.0,0.1284604247104247,0.12851202928870292,1.0,0\r\n"),
    "gamma-sync-losses": (
        ["sweep", "--channel", "bsc", "--sweep", "24,28,32", "--sweep-param", "gamma",
         "--p", "3e-2", "--frames", "200", "--seed", "8"],
        "24.0,0.03025721153846154,0.030277196652719666,1.0,0\r\n"
        "28.0,0.0305,0.03061976987447699,1.0,0\r\n"
        "32.0,0.03013221153846154,0.03006537656903766,1.0,15\r\n"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_golden_csv(name, tmp_path):
    args, rows = CASES[name]
    out = tmp_path / "out.csv"
    assert cli.main(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == (HEADER + rows).encode()
