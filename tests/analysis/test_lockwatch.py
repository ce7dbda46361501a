"""Runtime lock-order and guarded-mutation checks (`repro.analysis.lockwatch`)."""

from __future__ import annotations

import threading

import pytest

from repro.analysis import lockwatch
from repro.analysis.lockwatch import (
    LockOrderError,
    LockWatch,
    UnguardedWriteError,
    guard_attributes,
)


@pytest.fixture(autouse=True)
def _suspend_session_watch():
    """Run each test with no process-wide watch installed.

    These tests build, install and uninstall their own watches and assert
    on exactly the edges they make.  Under ``REPRO_LOCKWATCH=1`` the
    session watch is set aside around each of them and put back after, so
    it neither wraps their locks nor records their deliberate inversions.
    """
    saved = lockwatch.current()
    lockwatch.uninstall()
    yield
    lockwatch.uninstall()
    if saved is not None:
        lockwatch.install(saved)


def test_session_watch_is_set_aside_for_these_tests():
    # Holds with and without REPRO_LOCKWATCH=1: the fixture above
    # uninstalls the session watch before every test of this module.
    assert lockwatch.current() is None


def two_locks(watch):
    return watch.wrap(threading.Lock(), "A"), watch.wrap(threading.Lock(), "B")


class TestLockOrderGraph:
    def test_consistent_order_is_clean(self):
        watch = LockWatch()
        lock_a, lock_b = two_locks(watch)
        for _ in range(3):
            with lock_a:
                with lock_b:
                    pass
        watch.verify()
        assert watch.edges() == [("A", "B")]

    def test_inverted_order_raises(self):
        watch = LockWatch()
        lock_a, lock_b = two_locks(watch)
        with lock_a:
            with lock_b:
                pass
        with pytest.raises(LockOrderError, match="A -> B|B -> A"):
            with lock_b:
                with lock_a:
                    pass

    def test_record_mode_defers_to_verify(self):
        watch = LockWatch(raise_on_violation=False)
        lock_a, lock_b = two_locks(watch)
        with lock_a, lock_b:
            pass
        with lock_b, lock_a:
            pass
        assert watch.violations
        with pytest.raises(LockOrderError):
            watch.verify()

    def test_three_lock_cycle_detected(self):
        watch = LockWatch(raise_on_violation=False)
        lock_a, lock_b = two_locks(watch)
        lock_c = watch.wrap(threading.Lock(), "C")
        with lock_a, lock_b:
            pass
        with lock_b, lock_c:
            pass
        with lock_c, lock_a:
            pass
        with pytest.raises(LockOrderError):
            watch.verify()

    def test_rlock_reentry_is_not_a_cycle(self):
        watch = LockWatch()
        rlock = watch.wrap(threading.RLock(), "R")
        with rlock:
            with rlock:
                pass
        watch.verify()

    def test_cross_thread_orders_merge_into_one_graph(self):
        watch = LockWatch(raise_on_violation=False)
        lock_a, lock_b = two_locks(watch)

        def forwards():
            with lock_a, lock_b:
                pass

        def backwards():
            with lock_b, lock_a:
                pass

        t1 = threading.Thread(target=forwards)
        t1.start()
        t1.join()
        t2 = threading.Thread(target=backwards)
        t2.start()
        t2.join()
        with pytest.raises(LockOrderError):
            watch.verify()

    def test_condition_wait_releases_the_held_stack(self):
        watch = LockWatch()
        inner = watch.wrap(threading.Lock(), "cond-lock")
        condition = threading.Condition(inner)
        other = watch.wrap(threading.Lock(), "other")
        ready = threading.Event()

        def waiter():
            with condition:
                ready.set()
                condition.wait(timeout=5)
                # Acquiring inside the condition is ordered after cond-lock.
                with other:
                    pass

        thread = threading.Thread(target=waiter)
        thread.start()
        ready.wait(timeout=5)
        # While the waiter sleeps it must NOT count as holding cond-lock:
        # this thread can take other -> cond-lock without closing a cycle
        # against the waiter's (released) hold.
        with condition:
            condition.notify_all()
        thread.join(timeout=5)
        assert not thread.is_alive()
        watch.verify()


class TestGuardedAttributes:
    class Shared:
        def __init__(self):
            self.counter = 0
            self.label = "x"

    def test_guarded_write_without_lock_raises(self):
        watch = LockWatch()
        lock = watch.wrap(threading.Lock(), "guard")
        shared = guard_attributes(self.Shared(), lock, ["counter"])
        with pytest.raises(UnguardedWriteError, match="counter"):
            shared.counter = 1

    def test_guarded_write_under_lock_passes(self):
        watch = LockWatch()
        lock = watch.wrap(threading.Lock(), "guard")
        shared = guard_attributes(self.Shared(), lock, ["counter"])
        with lock:
            shared.counter = 1
        assert shared.counter == 1

    def test_unflagged_attributes_stay_free(self):
        watch = LockWatch()
        lock = watch.wrap(threading.Lock(), "guard")
        shared = guard_attributes(self.Shared(), lock, ["counter"])
        shared.label = "y"
        assert shared.label == "y"

    def test_record_mode_collects_instead_of_raising(self):
        watch = LockWatch(raise_on_violation=False)
        lock = watch.wrap(threading.Lock(), "guard")
        shared = guard_attributes(self.Shared(), lock, ["counter"])
        shared.counter = 5
        assert shared.counter == 5
        assert any("counter" in v for v in watch.violations)


class TestInstall:
    def test_install_wraps_new_locks_and_uninstall_restores(self):
        assert not lockwatch.installed()
        watch = lockwatch.install()
        try:
            lock = threading.Lock()
            assert isinstance(lock, lockwatch.InstrumentedLock)
            assert "test_lockwatch.py" in lock.name
            with lock:
                pass
            assert lockwatch.current() is watch
        finally:
            lockwatch.uninstall()
        assert not lockwatch.installed()
        assert not isinstance(threading.Lock(), lockwatch.InstrumentedLock)

    def test_installed_watch_survives_conditions_and_pools(self):
        lockwatch.install()
        try:
            condition = threading.Condition()
            with condition:
                condition.notify_all()
            event = threading.Event()
            event.set()
            assert event.is_set()
        finally:
            lockwatch.uninstall()

    def test_install_is_idempotent(self):
        first = lockwatch.install()
        try:
            assert lockwatch.install() is first
        finally:
            lockwatch.uninstall()

    def test_watching_requested_reads_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOCKWATCH", raising=False)
        assert not lockwatch.watching_requested()
        monkeypatch.setenv("REPRO_LOCKWATCH", "1")
        assert lockwatch.watching_requested()
        monkeypatch.setenv("REPRO_LOCKWATCH", "0")
        assert not lockwatch.watching_requested()


class TestServingStackUnderWatch:
    def test_replicated_wire_cluster_hammered_under_watch_is_acyclic(self):
        from repro.bench.apps import build_dots_backend, default_config
        from repro.datagen.synthetic import tiny_spec
        from repro.net.protocol import DataRequest
        from repro.serving import build_service

        watch = lockwatch.install()
        try:
            spec = tiny_spec("uniform", num_points=300, seed=5)
            stack = build_dots_backend(spec, config=default_config(viewport=256))
            service = build_service(
                stack.backend.config,
                backend=stack.backend,
                precompute=False,
                shard_count=2,
                replicas=2,
                wire_shards=True,
            )
            try:
                request = DataRequest(
                    app_name="dots",
                    canvas_id="dots",
                    layer_index=0,
                    granularity="box",
                    design="spatial",
                    xmin=0.0,
                    ymin=0.0,
                    xmax=128.0,
                    ymax=128.0,
                )
                threads = [
                    threading.Thread(
                        target=lambda: [service.handle(request) for _ in range(5)]
                    )
                    for _ in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            finally:
                service.close()
            watch.verify()
            # The stack's own locks were really instrumented: the replica
            # caches, serialization locks and router locks all registered.
            names = " ".join(watch.watched_lock_names())
            assert "src/repro/server/cache.py" in names
            assert "src/repro/cluster/router.py" in names
        finally:
            lockwatch.uninstall()
