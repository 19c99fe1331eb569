"""Suite-wide checks."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_noise_thread_left():
    """Fail any test that leaves a `run_link` noise worker alive."""
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith("gblink-noise")]
    if left:
        pytest.fail(f"noise threads left running: {left}")
