"""Runtime lock-order watching: the dynamic half of ``repro.analysis``.

The static ``lock-discipline`` rule proves writes happen *under a* lock;
it cannot prove the locks are acquired in a consistent *order* across
threads.  :class:`LockWatch` does: every instrumented lock records, at
acquire time, an edge from each lock the acquiring thread already holds to
the lock being acquired.  The edges form the global lock-acquisition-order
graph; a cycle in that graph is a potential deadlock (thread A holds X and
wants Y while thread B holds Y and wants X), and the watch reports it even
when the interleaving that would actually deadlock never fires in the run.

Opt-in, two ways:

* ``REPRO_LOCKWATCH=1`` in the environment — ``tests/conftest.py``
  installs the watch for the whole session and verifies the graph after
  every test (this is how CI runs the concurrency hammers);
* programmatic — ``watch = LockWatch(); lock = watch.wrap(threading.Lock(),
  "my lock")`` for targeted tests, or :func:`install` to patch
  ``threading.Lock``/``RLock`` so every lock created afterwards is watched.

The watch also checks *guarded mutations* at runtime:
:func:`guard_attributes` re-classes an object so writes to the flagged
attributes without the guard lock held raise (or are recorded as)
:class:`UnguardedWriteError`.

Cycle detection runs only when a **new** edge appears, on the small edge
set, so the hammers keep hammering; bookkeeping is O(held locks) per
acquire.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Iterable

__all__ = [
    "LockOrderError",
    "UnguardedWriteError",
    "LockWatch",
    "InstrumentedLock",
    "guard_attributes",
    "install",
    "uninstall",
    "installed",
    "current",
    "watching_requested",
]

_ENV_FLAG = "REPRO_LOCKWATCH"


class LockOrderError(RuntimeError):
    """A cycle in the lock-acquisition-order graph (potential deadlock)."""


class UnguardedWriteError(RuntimeError):
    """A guarded attribute was written without its lock held."""


class _HeldState(threading.local):
    """Per-thread stack of (lock id) currently held, in acquire order."""

    def __init__(self) -> None:
        self.stack: list[int] = []


class LockWatch:
    """The global lock-order graph plus recorded violations.

    With ``raise_on_violation=True`` (the default for direct use) a cycle
    or unguarded write raises immediately at the offending call; with
    ``False`` (what the conftest uses, so worker threads do not die
    mid-hammer) violations are recorded and :meth:`verify` raises later.
    """

    def __init__(self, *, raise_on_violation: bool = True) -> None:
        self.raise_on_violation = raise_on_violation
        # Use the *real* factory even when install() has patched
        # threading.Lock, so a watch's own mutex is never instrumented.
        real_lock = _INSTALLED.get("Lock", threading.Lock)
        self._mutex = real_lock()
        self._edges: dict[int, set[int]] = {}
        self._names: dict[int, str] = {}
        self._violations: list[str] = []
        self._held = _HeldState()

    # -- wrapping -------------------------------------------------------

    def wrap(self, lock: Any, name: str | None = None) -> "InstrumentedLock":
        """An instrumented proxy for ``lock`` feeding this watch."""
        if isinstance(lock, InstrumentedLock):
            return lock
        return InstrumentedLock(lock, self, name=name)

    def _register(self, lock_id: int, name: str) -> None:
        with self._mutex:
            self._names.setdefault(lock_id, name)

    # -- acquisition bookkeeping ---------------------------------------

    def note_acquire(self, lock_id: int, *, reentrant: bool) -> None:
        """Record (before blocking) that the current thread is taking
        ``lock_id`` while holding everything on its stack."""
        held = self._held.stack
        if reentrant and lock_id in held:
            held.append(lock_id)  # re-entry: no new ordering information
            return
        new_cycle: list[str] | None = None
        with self._mutex:
            for held_id in set(held):
                if held_id == lock_id:
                    continue
                successors = self._edges.setdefault(held_id, set())
                if lock_id not in successors:
                    successors.add(lock_id)
                    cycle = self._find_cycle(lock_id, held_id)
                    if cycle is not None:
                        new_cycle = [self._names.get(n, str(n)) for n in cycle]
        held.append(lock_id)
        if new_cycle is not None:
            self._violate(
                LockOrderError,
                "lock-order cycle (potential deadlock): "
                + " -> ".join(new_cycle),
            )

    def note_release(self, lock_id: int) -> None:
        held = self._held.stack
        for index in range(len(held) - 1, -1, -1):
            if held[index] == lock_id:
                del held[index]
                return

    def holds(self, lock_id: int) -> bool:
        return lock_id in self._held.stack

    # -- graph queries --------------------------------------------------

    def _find_cycle(self, start: int, target: int) -> list[int] | None:
        """A path ``start -> ... -> target`` in the edge set, meaning the
        just-added edge ``target -> start`` closed a cycle."""
        path = [start]
        seen = {start}

        def walk(node: int) -> bool:
            if node == target:
                return True
            for successor in self._edges.get(node, ()):
                if successor in seen:
                    continue
                seen.add(successor)
                path.append(successor)
                if walk(successor):
                    return True
                path.pop()
            return False

        if walk(start):
            return [target, *path]
        return None

    def watched_lock_names(self) -> list[str]:
        """Names of every lock registered with this watch."""
        with self._mutex:
            return sorted(self._names.values())

    def edges(self) -> list[tuple[str, str]]:
        """The graph as (held-name, acquired-name) pairs, for reporting."""
        with self._mutex:
            return sorted(
                (self._names.get(a, str(a)), self._names.get(b, str(b)))
                for a, successors in self._edges.items()
                for b in successors
            )

    def assert_acyclic(self) -> None:
        """Full-graph cycle check (three-colour DFS), independent of the
        incremental checks done at acquire time."""
        with self._mutex:
            edges = {node: set(successors) for node, successors in self._edges.items()}
            names = dict(self._names)
        WHITE, GREY, BLACK = 0, 1, 2
        colour: dict[int, int] = {}

        def visit(node: int, trail: list[int]) -> None:
            colour[node] = GREY
            trail.append(node)
            for successor in edges.get(node, ()):
                state = colour.get(successor, WHITE)
                if state == GREY:
                    cycle = trail[trail.index(successor) :] + [successor]
                    raise LockOrderError(
                        "lock-order cycle (potential deadlock): "
                        + " -> ".join(names.get(n, str(n)) for n in cycle)
                    )
                if state == WHITE:
                    visit(successor, trail)
            trail.pop()
            colour[node] = BLACK

        for node in list(edges):
            if colour.get(node, WHITE) == WHITE:
                visit(node, [])

    # -- violations -----------------------------------------------------

    def _violate(self, exc_type: type[RuntimeError], message: str) -> None:
        with self._mutex:
            self._violations.append(message)
        if self.raise_on_violation:
            raise exc_type(message)

    def record_unguarded_write(self, description: str) -> None:
        self._violate(UnguardedWriteError, description)

    @property
    def violations(self) -> list[str]:
        with self._mutex:
            return list(self._violations)

    def verify(self) -> None:
        """Raise on anything recorded so far, then re-check the full graph."""
        recorded = self.violations
        if recorded:
            raise LockOrderError(
                f"{len(recorded)} lockwatch violation(s):\n" + "\n".join(recorded)
            )
        self.assert_acyclic()


class InstrumentedLock:
    """A drop-in proxy over a ``threading`` lock reporting to a watch.

    Supports the full lock protocol — context manager,
    ``acquire(blocking, timeout)`` — plus the private
    ``_release_save``/``_acquire_restore``/``_is_owned`` hooks
    ``threading.Condition`` uses, so conditions built over watched locks
    stay correctly tracked across ``wait()``.
    """

    def __init__(self, inner: Any, watch: LockWatch, name: str | None = None) -> None:
        self._inner = inner
        self._watch = watch
        self._reentrant = hasattr(inner, "_is_owned") or "RLock" in type(inner).__name__
        self.name = name or f"{type(inner).__name__}@{id(inner):#x}"
        watch._register(id(self), self.name)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._watch.note_acquire(id(self), reentrant=self._reentrant)
        acquired = self._inner.acquire(blocking, timeout)
        if not acquired:
            self._watch.note_release(id(self))
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._watch.note_release(id(self))

    def locked(self) -> bool:
        return self._inner.locked()

    def held_by_current_thread(self) -> bool:
        return self._watch.holds(id(self))

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    # Condition integration: threading.Condition picks these up when the
    # lock provides them; forwarding keeps the held-stack truthful across
    # wait()/notify() cycles.

    def _release_save(self) -> Any:
        inner_save = getattr(self._inner, "_release_save", None)
        state = inner_save() if inner_save is not None else self._inner.release()
        self._watch.note_release(id(self))
        return state

    def _acquire_restore(self, state: Any) -> None:
        self._watch.note_acquire(id(self), reentrant=self._reentrant)
        inner_restore = getattr(self._inner, "_acquire_restore", None)
        if inner_restore is not None:
            inner_restore(state)
        else:
            self._inner.acquire()

    def _is_owned(self) -> bool:
        inner_owned = getattr(self._inner, "_is_owned", None)
        if inner_owned is not None:
            return bool(inner_owned())
        if self._inner.acquire(False):
            self._inner.release()
            return False
        return True

    def __repr__(self) -> str:
        return f"InstrumentedLock({self.name})"


def guard_attributes(obj: Any, lock: InstrumentedLock, attrs: Iterable[str]) -> Any:
    """Enforce at runtime that ``obj``'s ``attrs`` are only written while
    ``lock`` is held by the writing thread.

    Re-classes ``obj`` into a dynamic subclass whose ``__setattr__`` checks
    the watch; returns ``obj``.  The guard lock must be an
    :class:`InstrumentedLock` (ownership is otherwise unknowable from
    outside the lock).
    """
    guarded = frozenset(attrs)
    watch = lock._watch
    base = type(obj)

    def checked_setattr(self: Any, name: str, value: Any) -> None:
        if name in guarded and not lock.held_by_current_thread():
            watch.record_unguarded_write(
                f"unguarded write to {base.__name__}.{name} "
                f"(guard {lock.name} not held)"
            )
        base.__setattr__(self, name, value)

    subclass = type(
        f"Guarded{base.__name__}",
        (base,),
        {"__setattr__": checked_setattr, "__guarded_attrs__": guarded},
    )
    obj.__class__ = subclass
    return obj


# -- process-wide installation ------------------------------------------

_INSTALLED: dict[str, Any] = {}


def watching_requested() -> bool:
    """True when the environment opted into lockwatch (``REPRO_LOCKWATCH``)."""
    return os.environ.get(_ENV_FLAG, "").strip() not in ("", "0", "false", "no")


def installed() -> bool:
    return bool(_INSTALLED)


def current() -> LockWatch | None:
    """The installed process-wide watch, if any."""
    return _INSTALLED.get("watch")


def install(watch: LockWatch | None = None) -> LockWatch:
    """Patch ``threading.Lock``/``RLock`` so every lock created afterwards
    is instrumented and feeds ``watch``.

    Locks that already exist keep working unwatched; the serving stack
    creates its locks per-service, so installing before the stack is built
    (the conftest does it at session start) watches everything that
    matters.  :func:`uninstall` restores the real factories.
    """
    if _INSTALLED:
        return _INSTALLED["watch"]
    if watch is None:
        watch = LockWatch(raise_on_violation=False)
    real_lock = threading.Lock
    real_rlock = threading.RLock

    def lock_factory() -> InstrumentedLock:
        return watch.wrap(real_lock(), name=_creation_site("Lock"))

    def rlock_factory() -> InstrumentedLock:
        return watch.wrap(real_rlock(), name=_creation_site("RLock"))

    threading.Lock = lock_factory  # type: ignore[assignment]
    threading.RLock = rlock_factory  # type: ignore[assignment]
    _INSTALLED.update(
        {"watch": watch, "Lock": real_lock, "RLock": real_rlock}
    )
    return watch


def uninstall() -> None:
    if not _INSTALLED:
        return
    threading.Lock = _INSTALLED["Lock"]  # type: ignore[assignment]
    threading.RLock = _INSTALLED["RLock"]  # type: ignore[assignment]
    _INSTALLED.clear()


def _creation_site(kind: str) -> str:
    """``Lock(src/repro/server/cache.py:61)`` — names graph nodes by where
    the lock was made, which is what a human debugging an ordering report
    needs."""
    import sys

    frame = sys._getframe(2)
    filename = frame.f_code.co_filename
    for marker in ("/src/", "/tests/", "/benchmarks/", "/examples/"):
        index = filename.rfind(marker)
        if index != -1:
            filename = filename[index + 1 :]
            break
    return f"{kind}({filename}:{frame.f_lineno})"
