"""One benchmark sample, run in a fresh process by ``perfbench/run.py``.

Modes:

* ``functional`` -- the Figure 3 miss-rate sweep, in-process because
  the CLI does not pass ``--seed`` to it.  Each benchmark's curve is an
  independent computation, so it runs one ``figures.figure3`` call per
  benchmark (same output as one call over all of them) and records each
  call's seconds as that point's wall.
* ``cli -- <repro arguments>`` -- ``repro.cli.main`` under the layer
  tracer (untraced CLI samples run ``python -m repro`` directly).
* ``oracle`` -- re-derives a few of a finished sweep's results
  independently and exits non-zero on any difference: stored design
  points are re-simulated on the ``reference`` backend and compared
  field by field; Figure 3 miss rates are recomputed with a separate
  LRU model.

``--trace-out`` installs :mod:`layers` and writes its snapshot there.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from collections import OrderedDict
from pathlib import Path

#: Figure 3's cache geometry: two-way, 32-byte lines.
MISS_RATE_WAYS = 2
MISS_RATE_LINE = 32


def functional(args) -> int:
    from repro.core import figures, reporting
    from repro.workloads.catalog import BENCHMARKS

    curves = {}
    seconds = []
    for name in BENCHMARKS:
        start = time.perf_counter()
        curves.update(
            figures.figure3(
                instructions=args.instructions,
                warmup_instructions=args.warmup,
                seed=args.seed,
                benchmarks=(name,),
            )
        )
        seconds.append(time.perf_counter() - start)
    print(reporting.render_figure3(curves))
    Path(args.points_out).write_text(
        json.dumps({"seconds": seconds, "curves": curves})
    )
    return 0


def lru_miss_rate(refs_warm, refs, size: int, instructions: int) -> float:
    """Misses per instruction of a two-way LRU cache, modelled apart
    from ``SetAssociativeCache``."""
    sets = [OrderedDict() for _ in range(size // (MISS_RATE_WAYS * MISS_RATE_LINE))]
    count = len(sets)
    misses = 0
    for measured, stream in ((False, refs_warm), (True, refs)):
        for _, address in stream:
            line = address // MISS_RATE_LINE
            ways = sets[line % count]
            if line in ways:
                ways.move_to_end(line)
                continue
            if measured:
                misses += 1
            ways[line] = True
            if len(ways) > MISS_RATE_WAYS:
                ways.popitem(last=False)
    return misses / instructions


def oracle(args) -> int:
    rng = random.Random(args.seed)
    problems = []
    if args.kind == "functional":
        from repro.workloads.catalog import benchmark
        from repro.workloads.generator import WorkloadGenerator

        curves = json.loads(Path(args.points_out).read_text())["curves"]
        for name in rng.sample(sorted(curves), args.count):
            size, rate = rng.choice(curves[name])
            generator = WorkloadGenerator(benchmark(name), args.seed)
            warm = generator.memory_references(args.warmup)
            refs = generator.memory_references(args.instructions)
            expected = lru_miss_rate(warm, refs, size, args.instructions)
            if expected != rate:
                problems.append(f"{name} {size}B: {rate} != {expected}")
    else:
        from repro import kernel
        from repro.core.experiment import run_experiment
        from repro.engine.key import ExperimentKey
        from repro.engine.serialize import result_to_dict

        entries = sorted(Path(args.store).glob("v*/*/*.json"))
        for path in rng.sample(entries, min(args.count, len(entries))):
            entry = json.loads(path.read_text())
            key = ExperimentKey.from_dict(entry["key"])
            if key.digest != entry["digest"] or path.stem != key.digest:
                problems.append(f"{path.name}: key digest mismatch")
                continue
            with kernel.use_backend("reference"):
                result = run_experiment(key.organization, key.workload, key.settings)
            stored = dict(entry["result"], backend=None)
            fresh = dict(result_to_dict(result), backend=None)
            if stored != fresh:
                problems.append(f"{key.label}: fast result != reference")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    rest: list[str] = []
    if "--" in argv:
        split = argv.index("--")
        argv, rest = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser(prog="sample.py")
    parser.add_argument("mode", choices=("functional", "cli", "oracle"))
    parser.add_argument("--kind", choices=("cli", "functional"), default="cli")
    parser.add_argument("--store", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--instructions", type=int, default=0)
    parser.add_argument("--warmup", type=int, default=0)
    parser.add_argument("--points-out", default=None)
    parser.add_argument("--count", type=int, default=2)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    if args.mode == "oracle":
        return oracle(args)
    if args.mode == "cli":
        import repro.cli
    else:
        from repro.core import figures, reporting  # noqa: F401
    tracer = None
    if args.trace_out is not None:
        import layers

        tracer = layers.install()
    start = time.perf_counter()
    code = repro.cli.main(rest) if args.mode == "cli" else functional(args)
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    if tracer is not None:
        snapshot = tracer.snapshot()
        snapshot["main_s"] = main_s
        Path(args.trace_out).write_text(json.dumps(snapshot))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
