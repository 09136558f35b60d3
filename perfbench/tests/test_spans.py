import threading

import numpy as np
import pytest

from spans import SpanRecorder, merge_intervals, overlap_seconds


class FakeClock:
    """A settable clock shared by every thread of a test."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _record(rec, clock, name, start, end, work=0.0, parent_body=None):
    clock.now = start
    handle = rec.begin(rec.name_id(name))
    if parent_body is not None:
        parent_body()
    clock.now = end
    rec.end(handle, work)


def test_nested_self_times_partition_the_root():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def fused_body():
        _record(rec, clock, "kernel", 2.0, 5.0, work=7)
        _record(rec, clock, "kernel", 6.0, 6.5, work=3)

    def cell_body():
        _record(rec, clock, "fused", 1.0, 8.0, parent_body=fused_body)

    _record(rec, clock, "root", 0.0, 10.0, parent_body=cell_body)
    table = rec.table()
    assert table.root_wall() == 10.0
    assert table.self_seconds("root") == pytest.approx(3.0)
    assert table.self_seconds("fused") == pytest.approx(3.5)
    assert table.self_seconds("kernel") == pytest.approx(3.5)
    assert table.main_self_total() == pytest.approx(table.root_wall())
    assert table.calls("kernel") == 2
    assert table.work_sum("kernel") == 10
    assert table.inclusive("fused") == 7.0


def test_recursion_is_not_double_counted():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    _record(rec, clock, "step", 0.0, 4.0,
            parent_body=lambda: _record(rec, clock, "step", 1.0, 2.0))
    table = rec.table()
    assert table.inclusive("step") == 4.0
    assert table.main_self_total() == pytest.approx(4.0)


def test_off_thread_spans_stay_out_of_the_main_partition():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    root = rec.begin(rec.name_id("root"))
    fused = rec.begin(rec.name_id("fused"))

    def producer():
        # two RNG blocks drawn on a producer thread while the main
        # thread sits in "fused" (waiting, then in the kernel)
        _record(rec, clock, "sample", 1.0, 3.0)
        _record(rec, clock, "sample", 4.0, 6.0)

    worker = threading.Thread(target=producer)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    clock.now = 2.0
    kern = rec.begin(rec.name_id("kernel"))
    clock.now = 5.0
    rec.end(kern)
    clock.now = 7.0
    rec.end(fused)
    clock.now = 8.0
    rec.end(root)
    table = rec.table()
    assert table.inclusive("sample", thread="off") == 4.0
    assert table.inclusive("sample", thread="main") == 0.0
    assert table.inclusive("sample", thread="all") == 4.0
    # main self times still partition the root only
    assert table.main_self_total() == pytest.approx(table.root_wall())
    assert table.root_wall() == 8.0
    # fused self intervals: [0, 2) and [5, 7); producer busy [1, 3) and [4, 6)
    assert table.wait_seconds("fused", ("sample",)) == pytest.approx(1.0 + 1.0)


def test_out_of_order_close_raises():
    rec = SpanRecorder()
    outer = rec.begin(rec.name_id("outer"))
    rec.begin(rec.name_id("inner"))
    with pytest.raises(RuntimeError, match="out of order"):
        rec.end(outer)


def test_table_refuses_open_spans():
    rec = SpanRecorder()
    rec.begin(rec.name_id("open"))
    with pytest.raises(RuntimeError, match="still open"):
        rec.table()


def test_request_id_and_dump_round_trip(tmp_path):
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    rec.request_id = 42
    _record(rec, clock, "op", 0.0, 1.0)
    table = rec.table()
    table.dump(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as data:
        assert list(data["names"]) == ["op"]
        assert data["req"].tolist() == [42]
        assert data["parent"].tolist() == [-1]


def test_work_fraction_within():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    _record(rec, clock, "get", 0.0, 1.0, work=0.0)

    def warm_body():
        _record(rec, clock, "get", 3.0, 4.0, work=1.0)
        _record(rec, clock, "get", 4.0, 5.0, work=1.0)

    _record(rec, clock, "warm", 2.0, 6.0, parent_body=warm_body)
    assert rec.table().work_fraction_within("get", "warm") == 1.0


def test_interval_helpers():
    merged = merge_intervals(np.array([0.0, 1.0, 5.0]), np.array([2.0, 3.0, 6.0]))
    assert merged.tolist() == [[0.0, 3.0], [5.0, 6.0]]
    other = np.array([[2.5, 5.5]])
    assert overlap_seconds(merged, other) == pytest.approx(0.5 + 0.5)
    assert merge_intervals(np.array([]), np.array([])).shape == (0, 2)
