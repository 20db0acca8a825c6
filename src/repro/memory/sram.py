"""Functional set-associative cache state with true LRU replacement.

This models *contents* only (hits, misses, evictions, dirty lines); all
timing -- ports, banks, pipelining, MSHRs, buses -- lives in the other
modules of :mod:`repro.memory`.  The paper's primary data cache is
two-way set-associative with 32-byte lines and write-back/write-allocate
semantics (stores allocate through the MSHRs like loads).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Eviction:
    """A line pushed out of the cache by a fill."""

    line: int
    dirty: bool


class SetAssociativeCache:
    """LRU set-associative cache over *line addresses*.

    All methods take line addresses (byte address divided by the line
    size); callers convert with :func:`repro.memory.common.line_address`.

    Each set is an immutable tuple of tags, MRU first, and every update
    replaces the set's tuple instead of editing it.  That makes state
    cheap at the three moments a design point pays per set: a cold cache
    is one shared empty tuple repeated (``[()] * num_sets``), and
    :meth:`snapshot_state` / :meth:`restore_state` copy pointers to the
    tuples, never the tuples themselves.  Tuples that hold only ints are
    also untracked by the cyclic garbage collector, so memoized
    snapshots of large caches do not slow every later collection.  A hit
    on the MRU way writes nothing.
    """

    def __init__(self, size_bytes: int, associativity: int, line_bytes: int):
        if size_bytes <= 0 or size_bytes % (associativity * line_bytes):
            raise ValueError(
                f"cache size {size_bytes} not divisible into "
                f"{associativity}-way sets of {line_bytes}B lines"
            )
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (associativity * line_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"number of sets must be a power of two: {self.num_sets}")
        self._set_mask = self.num_sets - 1
        self._tag_shift = self.num_sets.bit_length() - 1
        # Per set: a tuple of tags in MRU-first order (see the class
        # docstring).  Dirty lines live in one flat set of line
        # addresses (cheap to snapshot and to probe; after warm-up only
        # a small fraction of lines is dirty).
        self._ways: list[tuple[int, ...]] = [()] * self.num_sets
        self._dirty: set[int] = set()
        self._count = 0  # resident lines, maintained for O(1) __len__

    def lookup(self, line: int, *, write: bool = False) -> bool:
        """Reference a line; returns hit/miss and updates LRU (and dirty)."""
        index = line & self._set_mask
        ways = self._ways[index]
        tag = line >> self._tag_shift
        if tag not in ways:
            return False
        if ways[0] != tag:
            pos = ways.index(tag)
            self._ways[index] = (tag,) + ways[:pos] + ways[pos + 1 :]
        if write:
            self._dirty.add(line)
        return True

    def probe(self, line: int) -> bool:
        """Check presence without touching LRU state."""
        return line >> self._tag_shift in self._ways[line & self._set_mask]

    def fill(self, line: int, *, dirty: bool = False) -> Eviction | None:
        """Install a line (MRU position); returns the victim, if any.

        Filling a line that is already present refreshes its LRU position
        (this happens when a merged MSHR response races a prefetch-like
        refill) and returns ``None``.
        """
        index = line & self._set_mask
        tag = line >> self._tag_shift
        ways = self._ways[index]
        if tag in ways:
            self.lookup(line, write=dirty)
            return None
        evicted: Eviction | None = None
        if len(ways) >= self.associativity:
            victim_line = (ways[-1] << self._tag_shift) | index
            victim_dirty = victim_line in self._dirty
            self._dirty.discard(victim_line)
            evicted = Eviction(victim_line, victim_dirty)
            ways = ways[:-1]
        else:
            self._count += 1
        self._ways[index] = (tag,) + ways
        if dirty:
            self._dirty.add(line)
        return evicted

    def invalidate(self, line: int) -> bool:
        """Drop a line if present; returns whether it was present."""
        index = line & self._set_mask
        ways = self._ways[index]
        tag = line >> self._tag_shift
        if tag not in ways:
            return False
        pos = ways.index(tag)
        self._ways[index] = ways[:pos] + ways[pos + 1 :]
        self._dirty.discard(line)
        self._count -= 1
        return True

    def snapshot_state(self) -> tuple:
        """An immutable copy of contents, LRU, and dirty bits -- pair
        with :meth:`restore_state` to clone warmed caches.

        The sets are shared with the live cache, not copied: they are
        tuples, so a later update replaces a set rather than changing
        the one the snapshot holds.
        """
        return (tuple(self._ways), frozenset(self._dirty), self._count)

    def restore_state(self, state: tuple) -> None:
        """Replace all contents with a snapshot's (a pointer copy)."""
        ways, dirty, count = state
        if len(ways) != self.num_sets:
            raise ValueError(
                f"snapshot has {len(ways)} sets, cache has {self.num_sets}"
            )
        self._ways = list(ways)
        self._dirty = set(dirty)
        self._count = count

    def is_dirty(self, line: int) -> bool:
        return line in self._dirty

    def resident_lines(self) -> list[int]:
        """All currently valid line addresses, set by set, MRU first
        within a set (testing/inspection aid)."""
        shift = self._tag_shift
        return [
            (tag << shift) | index
            for index, ways in enumerate(self._ways)
            for tag in ways
        ]

    def audit(self, name: str = "cache") -> list[str]:
        """Structural self-check; returns a list of problem descriptions.

        Guards the replacement bookkeeping the timing model relies on:
        no set may exceed its associativity, hold a duplicated way, or
        carry dirty bits for tags that are not resident.
        """
        problems: list[str] = []
        associativity = self.associativity
        for index, ways in enumerate(self._ways):
            ways_held = len(ways)
            if ways_held <= 1:
                continue  # neither too many ways nor a duplicate
            if ways_held > associativity:
                problems.append(
                    f"{name} set {index}: {ways_held} ways exceed "
                    f"associativity {associativity}"
                )
            if len(set(ways)) != ways_held:
                problems.append(f"{name} set {index}: duplicate tag in LRU order")
        probe = self.probe
        phantom = [line for line in self._dirty if not probe(line)]
        if phantom:
            problems.append(
                f"{name}: dirty bits for absent lines {sorted(phantom)}"
            )
        resident = sum(map(len, self._ways))
        if resident != self._count:
            problems.append(
                f"{name}: resident count {self._count} does not match "
                f"{resident} lines in LRU state"
            )
        return problems

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssociativeCache({self.size_bytes}B, "
            f"{self.associativity}-way, {self.line_bytes}B lines)"
        )


class FullyAssociativeCache:
    """Small fully-associative LRU cache (line buffer, victim-style uses)."""

    def __init__(self, entries: int, line_bytes: int):
        if entries <= 0:
            raise ValueError(f"entries must be positive: {entries}")
        self.entries = entries
        self.line_bytes = line_bytes
        self._lines: list[int] = []  # MRU first

    def lookup(self, line: int) -> bool:
        try:
            pos = self._lines.index(line)
        except ValueError:
            return False
        if pos:
            self._lines.insert(0, self._lines.pop(pos))
        return True

    def probe(self, line: int) -> bool:
        return line in self._lines

    def fill(self, line: int) -> int | None:
        """Install a line; returns the evicted line address, if any."""
        if self.lookup(line):
            return None
        evicted = None
        if len(self._lines) >= self.entries:
            evicted = self._lines.pop()
        self._lines.insert(0, line)
        return evicted

    def invalidate(self, line: int) -> bool:
        if line in self._lines:
            self._lines.remove(line)
            return True
        return False

    def snapshot_state(self) -> list[int]:
        """Copy of the contents in LRU order (see
        :meth:`SetAssociativeCache.snapshot_state`)."""
        return list(self._lines)

    def restore_state(self, state: list[int]) -> None:
        """Replace all contents with a copy of a snapshot's."""
        self._lines = list(state)

    def clear(self) -> None:
        self._lines.clear()

    def resident_lines(self) -> list[int]:
        """All currently held line addresses, MRU first."""
        return list(self._lines)

    def audit(self, name: str = "buffer") -> list[str]:
        """Structural self-check; returns a list of problem descriptions."""
        problems: list[str] = []
        if len(self._lines) > self.entries:
            problems.append(
                f"{name}: {len(self._lines)} lines exceed capacity {self.entries}"
            )
        if len(set(self._lines)) != len(self._lines):
            problems.append(f"{name}: duplicate line in LRU order")
        return problems

    def __len__(self) -> int:
        return len(self._lines)
