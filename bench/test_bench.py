"""Tests of the benchmark's own machinery: tracer arithmetic and hygiene, the
operation checks, and trace transparency on tiny gblink runs."""

import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402
from gblink import elastic, harness  # noqa: E402
from gblink.framing import P32, P64  # noqa: E402


def test_self_time_arithmetic_on_synthetic_spans():
    tr = T.Tracer([])
    # root [0, 100) with children [10, 30) and [40, 90); the second has a child [50, 60)
    tr.spans[:] = [T.Span("root", 0, 100, -1, 0), T.Span("a", 10, 30, 0, 0),
                   T.Span("b", 40, 90, 0, 0), T.Span("a", 50, 60, 2, 0)]
    self_ns = {k: round(v * 1e9) for k, v in tr.self_times().items()}
    assert self_ns == {"root": 100 - 20 - 50, "a": 20 + 10, "b": 50 - 10}
    by_run = tr.self_times(key=lambda s: (s.run, s.name))
    assert round(by_run[(0, "a")] * 1e9) == 30


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    class Box:
        def method(self, x):
            return mod.outer(x)

    def explode():
        raise RuntimeError("boom")

    mod.inner, mod.outer, mod.Box, mod.explode = inner, outer, Box, explode
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    return mod


def test_spans_nest_by_call_stack(fake_module):
    targets = [T.Target("m", "fake_layer", "Box.method"), T.Target("o", "fake_layer", "outer"),
               T.Target("i", "fake_layer", "inner", lambda ctx, a, k, r, e: {"in": a[0]})]
    with T.Tracer(targets) as tr:
        tr.run = 7
        assert fake_module.Box().method(1) == 4
    names = [(s.name, s.parent, s.run) for s in tr.spans]
    assert names == [("m", -1, 7), ("o", 0, 7), ("i", 1, 7), ("i", 1, 7)]
    assert all(s.start_ns <= s.end_ns for s in tr.spans)
    assert tr.counters == {"m.calls": 1, "o.calls": 1, "i.calls": 2, "in": 2}
    total = sum(tr.self_times().values())
    assert total == pytest.approx((tr.spans[0].end_ns - tr.spans[0].start_ns) / 1e9)


def test_attributes_restored_after_exception(fake_module):
    before = {name: vars(fake_module)[name] for name in ("inner", "outer", "explode")}
    method = vars(fake_module.Box)["method"]
    targets = [T.Target(n, "fake_layer", n) for n in before] + [
        T.Target("m", "fake_layer", "Box.method")]
    with pytest.raises(RuntimeError):
        with T.Tracer(targets) as tr:
            fake_module.explode()
    assert {n: vars(fake_module)[n] for n in before} == before
    assert all(vars(fake_module)[n] is f for n, f in before.items())
    assert vars(fake_module.Box)["method"] is method
    assert [s.name for s in tr.spans] == ["explode"] and tr.spans[0].end_ns > 0


def test_gblink_attributes_restored():
    import importlib
    owners = []
    for t in W.TARGETS:
        owner = importlib.import_module(t.module)
        *path, leaf = t.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        owners.append((owner, leaf, vars(owner)[leaf]))
    with T.Tracer(W.TARGETS) as tr:
        assert all(vars(o)[leaf] is not f for o, leaf, f in owners)
    assert tr.absent == []
    assert all(vars(o)[leaf] is f for o, leaf, f in owners)


def test_missing_names_reported_absent(fake_module):
    targets = [T.Target("gone", "fake_layer", "deleted"),
               T.Target("gone_cls", "fake_layer", "Nope.method"),
               T.Target("gone_mod", "fake_layer_missing", "f"),
               T.Target("o", "fake_layer", "outer")]
    with T.Tracer(targets) as tr:
        fake_module.outer(0)
    assert tr.absent == ["gone", "gone_cls", "gone_mod"]
    assert [s.name for s in tr.spans] == ["o"]


def test_private_targets_rejected():
    with pytest.raises(ValueError):
        T.Tracer([T.Target("p", "gblink.harness", "_demodulate_awgn")])


@pytest.mark.parametrize("cfg", [
    harness.ExperimentConfig(harness.AwgnChannel(6.0), frames=20, master_seed=3,
                             frame_kind=P32, bit_offset=3),
    harness.ExperimentConfig(harness.BscChannel(4e-3), frames=10, master_seed=4,
                             frame_kind=P64, bit_offset=5),
], ids=["awgn-p32", "bsc-p64"])
def test_traced_link_run_matches_untraced(cfg):
    plain = harness.run_link(cfg)
    with T.Tracer(W.TARGETS) as tr:
        tr.context = W.LinkOp(cfg)
        traced = harness.run_link(cfg)
    assert traced == plain
    assert tr.counters["harness.run_link.calls"] == 1
    assert tr.counters["sync.true_locks"] + tr.counters["sync.false_locks"] > 0
    assert tr.counters["rs.encode_blocks.blocks"] == cfg.frames * cfg.frame_kind.codewords_per_frame


def test_traced_fifo_run_matches_untraced():
    op = W.make_rounds("link-clean", 5)[0][2]
    assert isinstance(op, W.FifoOp)
    small = W.FifoOp(op.regime, op.cfg, 20_000, op.pattern, op.seed)
    plain = W.call(small)
    with T.Tracer(W.TARGETS) as tr:
        tr.context = small
        traced = W.call(small)
    assert traced == plain
    assert tr.counters[f"elastic.{small.regime}.stop_assertions"] == plain.stop_assertions


def test_false_locks_counted_off_grid():
    cfg = harness.ExperimentConfig(harness.BscChannel(0.0), frames=3, master_seed=1,
                                   frame_kind=P32, bit_offset=2)
    fb = P32.frame_bits
    counts = W._count_locate(W.LinkOp(cfg), (), {}, ([2, 2 + fb, 2 + fb + 5], 1), None)
    assert counts == {"sync.true_locks": 2, "sync.false_locks": 1, "sync.losses": 1,
                      "sync.frames": 3}


def test_checks_reject_broken_outputs():
    cfg = harness.ExperimentConfig(harness.BscChannel(0.0), frames=2, master_seed=1)
    good = harness.run_link(cfg)
    stats, units = W.check(W.LinkOp(cfg), good)
    assert units == 2 * P32.frame_bits and stats["frames"] == 2
    for bad in (dict(raw_bits=good.raw_bits + 8), dict(coded_bits=good.coded_bits - 8),
                dict(frame_errors=3)):
        broken = harness.LinkReport(**{**vars(good), **bad})
        with pytest.raises(W.CheckFailed):
            W.check(W.LinkOp(cfg), broken)

    op = W.FifoOp("equal", elastic.FifoConfig(), 1000, "continuous", 0)
    fine = elastic.simulate_fifo(op.cfg, op.cycles)
    W.check(op, fine)
    for bad in (dict(final_occupancy=fine.final_occupancy + 1),
                dict(max_occupancy=op.cfg.capacity_bytes + 1)):
        with pytest.raises(W.CheckFailed):
            W.check(op, elastic.FifoStats(**{**vars(fine), **bad}))


def test_rounds_follow_the_seed():
    for name in W.WORKLOADS:
        a, b = W.make_rounds(name, 1), W.make_rounds(name, 1)
        assert a == b and len(a) == W.ROUNDS_PER_BLOCK
        assert W.make_rounds(name, 2) != a
