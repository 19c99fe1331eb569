"""Golden CSV pins: seeded CLI runs must reproduce these bytes exactly.

The expected rows were produced by the per-frame receive loop that preceded
the batch receive path, so any change to the random streams, the noise and
detection arithmetic or the error accounting shows up here.  The cases cover
RS corrections and failures on both frame kinds, a run that crosses the
2^21-symbol noise chunk boundary, the distance channel, and a gamma sweep
with sync losses.
"""

import pytest

from gblink import cli

HEADER = "parameter,raw_ber,coded_ber,fer,sync_losses\r\n"

CASES = {
    "criterion10": (
        ["sweep", "--channel", "awgn", "--sweep", "6,8,10", "--frames", "120",
         "--seed", "1010", "--uncoded"],
        "6.0,0.009655448717948718,0.009497036262203625,0.9666666666666667,0\r\n"
        "8.0,0.0009294871794871795,0.0,0.0,0\r\n"
        "10.0,1.6025641025641026e-05,0.0,0.0,0\r\n"),
    "bsc-p64-rs-failures": (
        ["sweep", "--channel", "bsc", "--kind", "p64", "--sweep", "1e-3,2e-3,4e-3",
         "--frames", "300", "--seed", "7", "--bit-offset", "5"],
        "0.001,0.0009982303732303732,0.0,0.0,0\r\n"
        "0.002,0.002018178893178893,0.00014295676429567644,0.043333333333333335,0\r\n"
        "0.004,0.003927767052767052,0.0029532775453277546,0.6766666666666666,0\r\n"),
    "awgn-coded-sweep": (
        ["sweep", "--channel", "awgn", "--sweep", "5,6,7,12", "--frames", "800",
         "--seed", "3", "--bit-offset", "3"],
        "5.0,0.027305889423076924,0.02733067468619247,1.0,0\r\n"
        "6.0,0.012926682692307692,0.012888336820083682,0.99875,0\r\n"
        "7.0,0.00490625,0.00276869769874477,0.4225,0\r\n"
        "12.0,0.0,0.0,0.0,0\r\n"),
    "awgn-noise-chunk-boundary": (
        ["run", "--channel", "awgn", "--ebn0", "7", "--frames", "1100", "--seed", "5",
         "--bit-offset", "2"],
        "7.0,0.004950174825174825,0.00275532521871434,0.4163636363636364,0\r\n"),
    "distance-p64": (
        ["sweep", "--channel", "distance", "--kind", "p64", "--sweep", "150,250,400",
         "--frames", "200", "--seed", "23"],
        "150.0,2.775096525096525e-05,0.0,0.0,0\r\n"
        "250.0,0.015357142857142857,0.015380491631799163,1.0,0\r\n"
        "400.0,0.12937982625482625,0.12938284518828452,1.0,0\r\n"),
    "gamma-sync-losses": (
        ["sweep", "--channel", "bsc", "--sweep", "24,28,32", "--sweep-param", "gamma",
         "--p", "3e-2", "--frames", "200", "--seed", "8"],
        "24.0,0.030233173076923078,0.030290271966527196,1.0,0\r\n"
        "28.0,0.030360576923076924,0.03036610878661088,1.0,0\r\n"
        "32.0,0.030036057692307692,0.029976464435146444,1.0,13\r\n"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_golden_csv(name, tmp_path):
    args, rows = CASES[name]
    out = tmp_path / "out.csv"
    assert cli.main(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == (HEADER + rows).encode()
