"""Outside-in layer tracer for one traced benchmark sample.

Wraps public entry points of the simulator from outside the package --
nothing in ``src/`` knows it is being traced -- and keeps, per layer,
the *self* time of each wrapped call: its duration minus the part of
that interval spent in nested wrapped calls.  Self times of all layers
therefore never double count, and together with the uncovered
remainder they add up to the traced wall.

Layers use the package's module names:

* ``workloads`` -- ``WorkloadGenerator`` stream methods;
* ``kernel`` -- ``FastBackend.prepare``/``run`` (every workload runs
  the ``fast`` backend) and ``repro.kernel.fast.warm_memory``;
* ``memory`` -- ``MemorySystem`` construction, ``load``/``store``,
  ``prefill_backside``, and ``SetAssociativeCache.lookup``/``fill``;
* ``engine`` -- ``ExecutionPlan.execute``, ``ResultStore.save`` and the
  ``result_to_dict`` it calls;
* ``core`` -- the ``reporting.render_*`` functions.

Pool workers forked while the tracer is installed pass straight
through the wrappers (their numbers come from the span sink instead).
"""

from __future__ import annotations

import os
from time import perf_counter

#: Self-time buckets, one per wrapped layer boundary.
BUCKETS = (
    "generate",
    "warm",
    "restore",
    "loop",
    "build",
    "access",
    "prefill",
    "sram",
    "serialize",
    "store",
    "dispatch",
    "render",
)


class LayerTracer:
    """Per-layer self times and counts for one process."""

    def __init__(self):
        self.active = True
        self.stack: list[list[float]] = []
        self.self_s = dict.fromkeys(BUCKETS, 0.0)
        self.counts = {
            "ops": 0,
            "warm_replays": 0,
            "warm_refs": 0,
            "prepares": 0,
            "restores": 0,
            "instructions": 0,
            "cycles": 0,
            "accesses": 0,
            "l1_misses": 0,
            "sram_ops": 0,
        }
        #: Dispatch profiles of parallel batches, one per batch.
        self.dispatch: list[dict] = []
        self._in_stream = False

    # -- generic timing -------------------------------------------------

    def timed(self, bucket: str, fn, count: str | None = None):
        """``fn`` wrapped to add its self time to ``bucket``."""
        tracer = self
        stack = self.stack
        self_s = self.self_s
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[bucket] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if count is not None:
                    counts[count] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self) -> tuple[list[float], float]:
        """Push a frame for a wrapped call; returns it with its start."""
        frame = [0.0]
        self.stack.append(frame)
        return frame, perf_counter()

    def _close(self, frame, start: float) -> float:
        """Pop ``frame``; charge its duration to the enclosing frame."""
        elapsed = perf_counter() - start
        self.stack.pop()
        if self.stack:
            self.stack[-1][0] += elapsed
        return elapsed - frame[0]

    # -- workloads --------------------------------------------------------

    def stream_method(self, fn, ops_arg: bool):
        """A bulk ``WorkloadGenerator`` method (references/footprint).

        The instruction stream these methods pull internally is counted
        here (``ops_arg``: the first argument is the instruction count),
        so the nested ``instructions()`` call skips per-op timing.
        """
        tracer = self

        def wrapper(generator, *args, **kwargs):
            if not tracer.active or tracer._in_stream:
                return fn(generator, *args, **kwargs)
            frame, start = tracer._open()
            tracer._in_stream = True
            try:
                return fn(generator, *args, **kwargs)
            finally:
                tracer._in_stream = False
                tracer.self_s["generate"] += tracer._close(frame, start)
                if ops_arg:
                    tracer.counts["ops"] += args[0] if args else kwargs["instructions"]

        wrapper.__wrapped__ = fn
        return wrapper

    def instructions(self, fn):
        """``WorkloadGenerator.instructions``: time every micro-op pulled."""
        tracer = self

        def wrapper(generator):
            stream = fn(generator)
            if not tracer.active or tracer._in_stream:
                return stream
            return _TimedStream(tracer, stream)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- kernel -----------------------------------------------------------

    def prepare(self, fn):
        """``prepare``: self time is restore work unless it replayed."""
        tracer = self

        def wrapper(backend, spec, memory, settings):
            if not tracer.active:
                return fn(backend, spec, memory, settings)
            replays = tracer.counts["warm_replays"]
            frame, start = tracer._open()
            try:
                return fn(backend, spec, memory, settings)
            finally:
                own = tracer._close(frame, start)
                tracer.counts["prepares"] += 1
                if tracer.counts["warm_replays"] > replays:
                    tracer.self_s["warm"] += own
                else:
                    tracer.self_s["restore"] += own
                    if settings.functional_warmup > 0:
                        tracer.counts["restores"] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def warm_memory(self, fn):
        tracer = self

        def wrapper(memory, packed_refs):
            if not tracer.active:
                return fn(memory, packed_refs)
            frame, start = tracer._open()
            try:
                return fn(memory, packed_refs)
            finally:
                tracer.self_s["warm"] += tracer._close(frame, start)
                tracer.counts["warm_replays"] += 1
                tracer.counts["warm_refs"] += len(packed_refs)

        wrapper.__wrapped__ = fn
        return wrapper

    def run(self, fn):
        tracer = self

        def wrapper(backend, core, trace, max_instructions, **kwargs):
            if not tracer.active:
                return fn(backend, core, trace, max_instructions, **kwargs)
            frame, start = tracer._open()
            result = None
            try:
                result = fn(backend, core, trace, max_instructions, **kwargs)
                return result
            finally:
                tracer.self_s["loop"] += tracer._close(frame, start)
                if result is not None:
                    tracer.counts["instructions"] += result.instructions
                    tracer.counts["cycles"] += result.cycles
                    tracer.counts["l1_misses"] += result.memory.l1_misses

        wrapper.__wrapped__ = fn
        return wrapper

    # -- memory -----------------------------------------------------------

    def lookup(self, fn):
        """``SetAssociativeCache.lookup``; a miss outside any other
        wrapped call is a caller-driven L1 probe (functional sweeps)."""
        tracer = self
        stack = self.stack
        self_s = self.self_s
        counts = self.counts

        def wrapper(cache, line, **kwargs):
            if not tracer.active:
                return fn(cache, line, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            hit = fn(cache, line, **kwargs)
            elapsed = perf_counter() - start
            stack.pop()
            self_s["sram"] += elapsed - frame[0]
            counts["sram_ops"] += 1
            if stack:
                stack[-1][0] += elapsed
            elif not hit:
                counts["l1_misses"] += 1
            return hit

        wrapper.__wrapped__ = fn
        return wrapper

    # -- engine -----------------------------------------------------------

    def execute(self, fn, engine_of):
        """``ExecutionPlan.execute``: orchestration self time, minus the
        pool start-up that the batch's dispatch profile reports."""
        tracer = self

        def wrapper(plan):
            if not tracer.active:
                return fn(plan)
            engine = engine_of()
            before = engine.last_dispatch
            frame, start = tracer._open()
            try:
                return fn(plan)
            finally:
                tracer.self_s["dispatch"] += tracer._close(frame, start)
                profile = engine.last_dispatch
                if profile is not None and profile is not before:
                    tracer.dispatch.append(
                        {
                            "pool_start_s": profile.pool_create_seconds,
                            "chunks": profile.chunks,
                            "steals": profile.total_steals,
                            "workers": profile.workers,
                            "wall_s": profile.wall_seconds,
                            "utilization": profile.utilization(),
                        }
                    )

        wrapper.__wrapped__ = fn
        return wrapper

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "dispatch": list(self.dispatch),
        }


class _TimedStream:
    """Iterator proxy charging each ``next()`` to the generate bucket."""

    __slots__ = ("tracer", "stream")

    def __init__(self, tracer: LayerTracer, stream):
        self.tracer = tracer
        self.stream = stream

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        if not tracer.active:
            return next(self.stream)
        start = perf_counter()
        try:
            return next(self.stream)
        finally:
            elapsed = perf_counter() - start
            tracer.self_s["generate"] += elapsed
            tracer.counts["ops"] += 1
            if tracer.stack:
                tracer.stack[-1][0] += elapsed


def install() -> LayerTracer:
    """Wrap every traced entry point; returns the process's tracer."""
    from repro.core import reporting
    from repro.engine import executor, store
    from repro.kernel import fast
    from repro.memory.hierarchy import MemorySystem
    from repro.memory.sram import SetAssociativeCache
    from repro.workloads.generator import WorkloadGenerator

    tracer = LayerTracer()
    os.register_at_fork(after_in_child=lambda: setattr(tracer, "active", False))

    gen = WorkloadGenerator
    gen.instructions = tracer.instructions(gen.instructions)
    gen.memory_references = tracer.stream_method(gen.memory_references, True)
    gen.packed_references = tracer.stream_method(gen.packed_references, True)
    gen.footprint_lines = tracer.stream_method(gen.footprint_lines, False)

    fast.FastBackend.prepare = tracer.prepare(fast.FastBackend.prepare)
    fast.FastBackend.run = tracer.run(fast.FastBackend.run)
    fast.warm_memory = tracer.warm_memory(fast.warm_memory)

    MemorySystem.load = tracer.timed("access", MemorySystem.load, "accesses")
    MemorySystem.store = tracer.timed("access", MemorySystem.store, "accesses")
    MemorySystem.__init__ = tracer.timed("build", MemorySystem.__init__)
    MemorySystem.prefill_backside = tracer.timed(
        "prefill", MemorySystem.prefill_backside
    )
    SetAssociativeCache.lookup = tracer.lookup(SetAssociativeCache.lookup)
    SetAssociativeCache.fill = tracer.timed(
        "sram", SetAssociativeCache.fill, "sram_ops"
    )

    executor.ExecutionPlan.execute = tracer.execute(
        executor.ExecutionPlan.execute, executor.get_engine
    )
    store.ResultStore.save = tracer.timed("store", store.ResultStore.save)
    store.result_to_dict = tracer.timed("serialize", store.result_to_dict)

    for name in dir(reporting):
        if name.startswith("render_"):
            setattr(reporting, name, tracer.timed("render", getattr(reporting, name)))
    return tracer
