"""Golden CSV pins: seeded CLI runs must reproduce these bytes exactly.

The AWGN and distance rows were re-pinned when the DBPSK channel began to draw
the detector's errors around the large noise samples only, and the BSC rows
when `channel.bsc` began to draw the gaps between flips, each changed row
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
        "6.0,0.009030448717948718,0.008634065550906555,0.925,0\r\n"
        "8.0,0.0008774038461538461,0.0,0.0,0\r\n"
        "10.0,2.8044871794871795e-05,0.0,0.0,0\r\n"),
    "bsc-p64-rs-failures": (
        ["sweep", "--channel", "bsc", "--kind", "p64", "--sweep", "1e-3,2e-3,4e-3",
         "--frames", "300", "--seed", "7", "--bit-offset", "5"],
        "0.001,0.0009523809523809524,0.0,0.0,0\r\n"
        "0.002,0.002003700128700129,0.0001839260808926081,0.05333333333333334,0\r\n"
        "0.004,0.003984073359073359,0.002933228730822873,0.6433333333333333,0\r\n"),
    "awgn-coded-sweep": (
        ["sweep", "--channel", "awgn", "--sweep", "5,6,7,12", "--frames", "800",
         "--seed", "3", "--bit-offset", "3"],
        "5.0,0.0272265625,0.027184231171548116,1.0,0\r\n"
        "6.0,0.013091947115384615,0.013111924686192468,0.99875,0\r\n"
        "7.0,0.004989182692307692,0.002915794979079498,0.43375,0\r\n"
        "12.0,6.009615384615385e-07,0.0,0.0,0\r\n"),
    "awgn-noise-chunk-boundary": (
        ["run", "--channel", "awgn", "--ebn0", "7", "--frames", "1100", "--seed", "5",
         "--bit-offset", "2"],
        "7.0,0.004975524475524475,0.002794788893115253,0.4218181818181818,0\r\n"),
    "distance-p64": (
        ["sweep", "--channel", "distance", "--kind", "p64", "--sweep", "150,250,400",
         "--frames", "200", "--seed", "23"],
        "150.0,2.8957528957528956e-05,0.0,0.0,0\r\n"
        "250.0,0.015453667953667954,0.015477248953974895,1.0,0\r\n"
        "400.0,0.1287536196911197,0.12877876569037658,1.0,0\r\n"),
    "gamma-sync-losses": (
        ["sweep", "--channel", "bsc", "--sweep", "24,28,32", "--sweep-param", "gamma",
         "--p", "3e-2", "--frames", "200", "--seed", "8"],
        "24.0,0.02995673076923077,0.02996338912133891,1.0,0\r\n"
        "28.0,0.030185096153846153,0.030159518828451883,1.0,0\r\n"
        "32.0,0.030064903846153845,0.030028765690376567,1.0,9\r\n"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_golden_csv(name, tmp_path):
    args, rows = CASES[name]
    out = tmp_path / "out.csv"
    assert cli.main(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == (HEADER + rows).encode()
