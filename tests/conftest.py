import functools
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from scaleiou import Box, giou, iou


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


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees allocated during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
