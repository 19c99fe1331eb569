"""Seeded output does not depend on which SIMD kernels numpy dispatches to.

The seeded chain runs float code that numpy picks by CPU (`log1p` and a
divide in `channel.bsc_flips`; `log1p`, `sqrt` and a complex `exp` in
`channel._noise_draws`; the `_wrong` product).  A child process reruns the
bench digests and the golden CSVs with `NPY_DISABLE_CPU_FEATURES` turning
off the host's dispatch targets above X86_V3, and then X86_V3 too, so the
pins must hold on the older kernels as well.  The variable is set in the
child's environment only.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy._core._multiarray_umath as umath
import pytest

REPO = Path(__file__).resolve().parents[1]
PINNED = ["tests/test_bench_digests.py", "tests/test_golden.py"]
_HOST = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
V3_AND_ABOVE = _HOST[_HOST.index("X86_V3"):] if "X86_V3" in _HOST else []

# the child checks that the features are really off, then runs the pinned tests
CHILD = """import sys, pytest, numpy._core._multiarray_umath as m
on = [f for f in sys.argv[1].split() if m.__cpu_features__[f]]
sys.exit(f"still on: {on}" if on else pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


@pytest.mark.parametrize("disabled", [V3_AND_ABOVE[1:], V3_AND_ABOVE],
                         ids=["above-x86-v3", "x86-v3-and-above"])
def test_pins_hold_without_top_simd_targets(disabled):
    if not disabled:
        pytest.skip(f"the host has none of these numpy dispatch targets (it has {_HOST})")
    features = " ".join(disabled)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=features)
    child = subprocess.run([sys.executable, "-c", CHILD, features, *PINNED], cwd=REPO, env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[-3000:]
    summary = child.stdout.strip().splitlines()[-1]
    assert "passed" in summary and not any(w in summary for w in ("skipped", "deselected", "xfail", "xpass"))
