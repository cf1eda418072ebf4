import sys
import threading

import pytest

from stabcert import _blas
from stabcert._blas import single_blas_thread

BLAS = _blas._openblas_threads()
needs_openblas = pytest.mark.skipif(BLAS is None, reason="numpy bundles no OpenBLAS here")


@pytest.fixture()
def two_threads():
    """OpenBLAS at 2 threads for the test, the caller's count afterwards."""
    get, put = BLAS
    before = get()
    put(2)
    try:
        yield get
    finally:
        put(before)


@needs_openblas
def test_pin_holds_one_thread_and_restores(two_threads):
    with single_blas_thread() as pinned:
        assert pinned and two_threads() == 1
    assert two_threads() == 2


@needs_openblas
def test_pin_restores_after_an_exception(two_threads):
    with pytest.raises(RuntimeError, match="body"):
        with single_blas_thread():
            raise RuntimeError("body")
    assert two_threads() == 2


@needs_openblas
def test_nested_pin_stays_until_the_outer_exits(two_threads):
    with single_blas_thread():
        with single_blas_thread() as inner:
            assert inner and two_threads() == 1
        assert two_threads() == 1
    assert two_threads() == 2


@needs_openblas
def test_pin_held_by_another_thread_outlives_the_first_holder(two_threads):
    entered, release = threading.Event(), threading.Event()

    def hold():
        with single_blas_thread():
            entered.set()
            release.wait(30)

    with single_blas_thread():
        worker = threading.Thread(target=hold)
        worker.start()
        assert entered.wait(30)
    assert two_threads() == 1  # the worker still holds the pin
    release.set()
    worker.join(30)
    assert not worker.is_alive()
    assert two_threads() == 2


@needs_openblas
def test_concurrent_holders_restore_the_count(two_threads):
    # More holders than cores, switching as often as the interpreter allows:
    # a lost update of the holder count would leave the pin set or drop it
    # while a holder is inside.
    wrong = []

    def churn():
        for _ in range(200):
            with single_blas_thread():
                if two_threads() != 1:
                    wrong.append(two_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert wrong == []
    assert two_threads() == 2


def test_without_openblas_the_pin_does_nothing(monkeypatch):
    monkeypatch.setattr(_blas, "_openblas_threads", lambda: None)
    with single_blas_thread() as pinned:
        assert pinned is False
