"""Deterministic fault injection: prove the guard rails actually fire.

Each injector corrupts one live component of a
:class:`~repro.memory.hierarchy.MemorySystem` the way a real simulator
bug would -- a register that never frees, bookkeeping that forgets a
reservation, state scrambled behind the model's back.  The test suite
(and the CI smoke test) runs a workload against each fault and asserts
that the matching invariant or the watchdog catches it with a
structured error, so the guard rails themselves are regression-tested.

All injection is monkey-patching of bound methods or direct state
mutation on *one* memory-system instance; nothing global is touched and
un-faulted instances are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memory.hierarchy import MemorySystem

#: A fill cycle far enough out that it never legitimately retires.
FAR_FUTURE = 1 << 60


@dataclass(frozen=True)
class FaultClass:
    """Catalog entry describing one injectable fault and its detector."""

    name: str
    description: str
    caught_by: str  #: "invariant" or "watchdog"


FAULT_CLASSES: tuple[FaultClass, ...] = (
    FaultClass(
        "stuck-mshr",
        "an MSHR fill never retires, wedging later references to its line",
        "watchdog",
    ),
    FaultClass(
        "dropped-bus-grant",
        "a bus transfer is granted zero occupancy (data teleports)",
        "invariant",
    ),
    FaultClass(
        "lost-port-release",
        "a port reservation is held forever, or its booking is forgotten",
        "watchdog / invariant",
    ),
    FaultClass(
        "corrupt-lru",
        "L1 replacement state is scrambled (duplicate way, phantom dirty)",
        "invariant",
    ),
)


def inject_stuck_mshr(memory: "MemorySystem", *, after_fills: int = 1) -> None:
    """From the ``after_fills``-th fill on, MSHR registers never retire.

    Later references to a stuck line become delayed hits that wait on a
    fill which never arrives; the head of the instruction window stops
    committing and the watchdog raises
    :class:`~repro.robustness.errors.DeadlockError`.
    """
    mshrs = memory.mshrs
    original = mshrs.complete
    fills = 0

    def stuck_complete(
        line: int, fill_cycle: int, alloc_cycle: int | None = None
    ) -> None:
        nonlocal fills
        fills += 1
        if fills >= after_fills:
            fill_cycle = FAR_FUTURE
        original(line, fill_cycle, alloc_cycle=alloc_cycle)

    mshrs.complete = stuck_complete  # type: ignore[method-assign]


def inject_dropped_bus_grant(memory: "MemorySystem", *, after_transfers: int = 1) -> None:
    """From the ``after_transfers``-th transfer on, the chip bus "grants"
    a zero-length window without booking any occupancy.

    Fill data would arrive the instant it was requested -- the causality
    invariant in the backside path raises
    :class:`~repro.robustness.errors.SimulationInvariantError`.
    """
    from repro.memory.bus import Transfer

    bus = memory.backside.chip_bus
    original = bus.transfer
    transfers = 0

    def dropped_transfer(cycle: int, nbytes: int) -> Transfer:
        nonlocal transfers
        transfers += 1
        if transfers >= after_transfers:
            return Transfer(start_cycle=cycle, done_cycle=cycle)
        return original(cycle, nbytes)

    bus.transfer = dropped_transfer  # type: ignore[method-assign]


def inject_lost_port_release(memory: "MemorySystem", *, mode: str = "hold") -> None:
    """Break the cache-port arbiter's reservation bookkeeping.

    ``mode="hold"``: every port's release is lost -- reservations are
    held forever, the next access is granted in the far future, and the
    watchdog raises :class:`~repro.robustness.errors.DeadlockError`.

    ``mode="regrant"``: the arbiter forgets each booking right after
    granting it, so the same port cycle is handed out repeatedly; the
    per-cycle grant-capacity invariant raises
    :class:`~repro.robustness.errors.SimulationInvariantError`.
    """
    arbiter = memory.arbiter
    if mode == "hold":
        arbiter._next_free[:] = [FAR_FUTURE] * len(arbiter._next_free)
        return
    if mode == "regrant":
        original = arbiter.reserve

        def forgetful_reserve(line: int, cycle: int) -> int:
            snapshot = list(arbiter._next_free)
            start = original(line, cycle)
            arbiter._next_free[:] = snapshot  # the booking is lost
            return start

        arbiter.reserve = forgetful_reserve  # type: ignore[method-assign]
        return
    raise ValueError(f"unknown lost-port-release mode {mode!r}")


def inject_corrupt_lru(memory: "MemorySystem", *, phantom_dirty: bool = False) -> None:
    """Scramble the L1's replacement state behind the model's back.

    Duplicates the MRU way of the first populated set (or, with
    ``phantom_dirty``, marks a non-resident tag dirty).  The periodic
    structural audit raises
    :class:`~repro.robustness.errors.SimulationInvariantError`.
    """
    l1 = memory.l1
    for index, ways in enumerate(l1._ways):
        if ways:
            if phantom_dirty:
                phantom_line = ((max(ways) + 1) << l1._tag_shift) | index
                l1._dirty.add(phantom_line)
            else:
                l1._ways[index] = ways + ways[:1]
            return
    raise RuntimeError("cannot corrupt an empty cache; warm it first")
