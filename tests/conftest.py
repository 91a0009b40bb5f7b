import functools
import tracemalloc
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np
import pytest

from scaleiou import Box, BoxTable, boxes_array, giou, iou


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_box(rng, lo=1.0, hi=200.0, size_lo=5.0, size_hi=100.0):
    x, y = rng.uniform(lo, hi, 2)
    w, h = rng.uniform(size_lo, size_hi, 2)
    return Box(float(x), float(y), float(w), float(h))


def random_smooth_pair(rng, min_edge_gap=0.05, min_overlap=0.02):
    """A random pair away from gradient kinks: no near-coinciding edges, and
    IoU/GIoU bounded away from their own singular points."""
    while True:
        b1 = random_box(rng)
        b2 = random_box(rng)
        edges = [
            abs(e1 - e2)
            for e1 in (b1.x_min, b1.x_max)
            for e2 in (b2.x_min, b2.x_max)
        ] + [
            abs(e1 - e2)
            for e1 in (b1.y_min, b1.y_max)
            for e2 in (b2.y_min, b2.y_max)
        ]
        if min(edges) < min_edge_gap:
            continue
        u = iou(b1, b2)
        g = giou(b1, b2)
        if abs(g) < min_overlap or (0 < u < min_overlap):
            continue
        return b1, b2


@dataclass(frozen=True)
class GroundTruth:
    """One ground-truth row of a test instance."""

    image_id: str
    category: str
    box: Box


@dataclass(frozen=True)
class Detection:
    """One detection row of a test instance."""

    image_id: str
    category: str
    box: Box
    score: float


def ground_truth_table(gts) -> BoxTable:
    """The BoxTable of GroundTruth rows, in their order."""
    return BoxTable(np.array([g.image_id for g in gts], dtype=object), np.array([g.category for g in gts], dtype=object),
                    boxes_array(g.box for g in gts))


def detection_table(dets) -> BoxTable:
    """The BoxTable of Detection rows, in their order."""
    return BoxTable(np.array([d.image_id for d in dets], dtype=object), np.array([d.category for d in dets], dtype=object),
                    boxes_array(d.box for d in dets), np.array([d.score for d in dets], dtype=float))


def tables(dets, gts) -> tuple[BoxTable, BoxTable]:
    """The detection and ground-truth tables of a test instance."""
    return detection_table(dets), ground_truth_table(gts)


class SerialFuture(Future):
    """A future whose call runs on its first result(), unless it was cancelled before."""

    def __init__(self, call):
        super().__init__()
        self.call = call

    def run(self):
        if not self.done() and self.set_running_or_notify_cancel():
            try:
                self.set_result(self.call())
            except Exception as exc:
                self.set_exception(exc)

    def result(self, timeout=None):
        self.run()
        return super().result(timeout)


class SerialPool:
    """Stands in for ThreadPoolExecutor: records max_workers, and every future it
    hands out while a test has set futures to a list; starts no thread."""

    requested = []
    futures = None
    future_type = SerialFuture

    def __init__(self, max_workers):
        SerialPool.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = self.future_type(functools.partial(fn, *args))
        if SerialPool.futures is not None:
            SerialPool.futures.append(future)
        return future


@pytest.fixture(autouse=True)
def fresh_serial_pool(monkeypatch):
    """Every test starts with SerialPool's records empty and gets the class's
    own back after it ends."""
    monkeypatch.setattr(SerialPool, "requested", [])
    monkeypatch.setattr(SerialPool, "futures", None)


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees allocated during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
