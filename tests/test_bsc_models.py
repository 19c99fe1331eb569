"""BSC checks that hold for any correct flip stream.

`channel.bsc` flips i.i.d. Bernoulli(p) bits whatever layout its generator
draws them in, so these seeded runs are compared with closed forms, not with
pinned values: flip counts per 64-bit window against Binomial(64, p), gaps
between flips against Geometric(p), P64 frame errors against i.i.d. binomial
byte errors, and P32 and P64 sync losses at gamma = n against the flywheel's
renewal cycle.  A change of the BSC random stream has to pass them before any
golden row is re-pinned.
"""

import math
import statistics

import numpy as np
import pytest
from scipy import stats

from gblink import channel, sync
from gblink.framing import P32, P64
from gblink.harness import BscChannel, ExperimentConfig, run_link

ALPHA = 1e-3  # chi-square significance of the seeded distribution checks


def chi2_pvalue(observed, probs):
    """Pearson chi-square p-value of category counts against probabilities,
    the last categories pooled until each expects at least 5."""
    expected = np.asarray(probs, float) * observed.sum()
    tail = np.cumsum(expected[::-1])[::-1]  # expected count from each category on
    cut = int(np.argmax(tail < 5)) - 1 if (tail < 5).any() else len(expected) - 1
    obs = np.append(observed[:cut], observed[cut:].sum())
    exp = np.append(expected[:cut], expected[cut:].sum())
    assert (exp >= 5).all()
    return stats.chisquare(obs, exp).pvalue


@pytest.mark.parametrize("p", [2e-3, 3e-2])
def test_window_flip_counts_are_binomial(p):
    windows = channel.bsc(np.zeros(64 << 16, np.uint8), p, 11).reshape(-1, 64).sum(axis=1)
    observed = np.bincount(windows, minlength=65)
    assert chi2_pvalue(observed, stats.binom.pmf(np.arange(65), 64, p)) > ALPHA


@pytest.mark.parametrize("p", [2e-3, 3e-2])
def test_gaps_between_flips_are_geometric(p):
    flips = np.flatnonzero(channel.bsc(np.zeros(1 << 22, np.uint8), p, 12))
    gaps = np.diff(flips, prepend=-1)
    # 20 near-equiprobable bins, each bin [edges[j], edges[j + 1]) of gap lengths
    edges = np.unique(np.r_[1, stats.geom.ppf(np.arange(1, 20) / 20, p)]).astype(np.int64)
    observed = np.bincount(np.searchsorted(edges, gaps, side="right") - 1, minlength=len(edges))
    probs = -np.diff(np.append(stats.geom.sf(edges - 1, p), 0.0))
    assert chi2_pvalue(observed, probs) > ALPHA


@pytest.mark.parametrize("p,frames", [(2e-3, 3000), (4e-3, 1500)])
def test_p64_fer_matches_binomial_byte_errors(p, frames):
    """A P64 frame fails when either of its RS(255, 239) codewords holds 9 or
    more bad bytes, each byte bad with probability 1 - (1 - p)^8; sync misses
    are negligible at these p."""
    pf = sync.binomial_tail_ge(255, 9, 1 - (1 - p) ** 8)
    fer = 1 - (1 - pf) ** 2
    rep = run_link(ExperimentConfig(BscChannel(p), frames, 1, frame_kind=P64))
    se = math.sqrt(fer * (1 - fer) / frames)
    assert abs(rep.frame_errors / frames - fer) <= 3 * se


@pytest.mark.parametrize("kind,p", [(P32, 3e-2), (P64, 1.5e-2)], ids=["p32", "p64"])
def test_sync_losses_match_renewal_cycle(kind, p):
    """At gamma = n any flip misses a window, so m = 1 - (1 - p)^n.  A lock
    is tracked to a double miss, then windows are scanned to a double hit:
    E[cycle] = (1 + m) / m^2 + (1 + h) / h^2 frames per loss, h = 1 - m."""
    n, frames = kind.preamble_bits, 6000
    m = 1 - (1 - p) ** n
    h = 1 - m
    cycle = (1 + m) / m ** 2 + (1 + h) / h ** 2
    rates = [run_link(ExperimentConfig(BscChannel(p), frames, seed, kind, gamma=n)).sync_losses
             / frames for seed in range(1, 7)]
    se = statistics.stdev(rates) / math.sqrt(len(rates))
    assert abs(statistics.mean(rates) - 1 / cycle) <= 3 * se
