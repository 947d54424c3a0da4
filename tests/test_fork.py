import multiprocessing
import os
import time

import numpy as np
import pytest

from paikit._fork import fork_map
from paikit.geometry import GeometryError
from paikit.wave_forward import CFLError


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Two workers on any host; no child may outlive a test."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    yield
    assert multiprocessing.active_children() == []


def _field(x):
    return x, np.sin(np.arange(40_000) * (x + 0.5))


def test_results_equal_the_serial_list_in_order():
    items = range(7)
    got = fork_map(_field, items)
    want = [_field(x) for x in items]
    assert [x for x, _ in got] == list(items)
    for (_, a), (_, b) in zip(got, want):
        assert np.array_equal(a, b)


def test_items_run_in_a_child():
    parent = os.getpid()
    pids = fork_map(lambda _: os.getpid(), range(4))
    assert pids[0::2] == [parent, parent]
    assert parent not in pids[1::2]


def test_one_cpu_starts_no_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert fork_map(lambda _: os.getpid(), range(4)) == [os.getpid()] * 4


def test_child_exception_keeps_its_class():
    def fn(x):
        if x == 3:                      # in the child's share
            raise CFLError("dt above the CFL limit")
        return x

    with pytest.raises(CFLError, match="CFL limit"):
        fork_map(fn, range(6))


@pytest.mark.parametrize("first, second", [(3, 4), (2, 5)])
def test_lowest_failing_index_wins(first, second):
    def fn(x):
        if x == first:
            raise GeometryError(f"item {x}")
        if x == second:
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(GeometryError, match=f"item {first}"):
        fork_map(fn, range(6))


def test_unpicklable_exception_becomes_runtime_error():
    class LocalError(Exception):
        pass

    def fn(x):
        if x == 1:
            raise LocalError("no import path")
        return x

    with pytest.raises(RuntimeError, match="LocalError: no import path"):
        fork_map(fn, range(4))


def test_child_exit_names_its_code():
    parent = os.getpid()

    def fn(x):
        if x == 1 and os.getpid() != parent:
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match="code 3"):
        fork_map(fn, range(4))


def test_interrupted_caller_terminates_its_children():
    class Interrupt(BaseException):
        pass

    def fn(x):
        if x == 0:                      # in the caller's share
            raise Interrupt
        time.sleep(60)
        return x

    start = time.perf_counter()
    with pytest.raises(Interrupt):
        fork_map(fn, range(2))
    assert time.perf_counter() - start < 30
