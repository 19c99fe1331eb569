"""The benchmark's seeded output, pinned: the digest of the simulated statistics
of the first block of rounds of each workload at seed 1, as `bench/run.py`
prints it.  A change that only makes gblink faster leaves all three unchanged."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads as W  # noqa: E402

DIGESTS = {
    "link-clean": "e0f76f7b7e5d06c1",
    "link-waterfall": "f104f5c73a5bd117",
    "fifo-regimes": "9531156d857c1cf5",
}


@pytest.mark.parametrize("workload", list(DIGESTS))
def test_seed_1_digest(workload):
    stats = [W.check(op, W.call(op))[0] for ops in W.make_rounds(workload, 1) for op in ops]
    assert W.digest(stats) == DIGESTS[workload]
