"""Host-time benchmark of the cache-simulator sweeps.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload headlines-cold --seed 1 \
        --seconds 30 --trace 0

Every sample is one closed batch: a single sweep against a fresh, empty
result store, in a fresh process (the trace cache, the memo and the
worker pool are all per-process), on the ``fast`` backend.  The run
repeats samples until ``--seconds`` is spent and reports medians.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a few
untraced samples, then traced ones under :mod:`layers`, and prints the
per-layer split of the traced sample with the median wall.  Every number
is host time or a host-side count; simulated statistics are checked,
never reported.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Budgets passed explicitly to every sweep: a tenth of the CLI defaults
#: (``--instructions`` 24000/12000, ``--timing-warmup`` 2000,
#: ``--functional-warmup`` 300000), so several whole sweeps fit in one
#: run and the reported figures are medians, not single readings.
HEADLINE_BUDGET = (2400, 200, 30_000)
DESIGN_SPACE_BUDGET = (1200, 200, 30_000)
#: Figure 3 per-benchmark (measured, warm-up) instructions: a tenth of
#: the library defaults (250000 each).
MISS_RATE_BUDGET = (25_000, 25_000)

WORKLOADS = {
    "headlines-cold": {
        "experiment": "headlines", "jobs": 1, "budget": HEADLINE_BUDGET,
        "points": 90, "min_samples": 3,
    },
    "design-space-cold": {
        "experiment": "figure8", "jobs": 1, "budget": DESIGN_SPACE_BUDGET,
        "benchmarks": ("database",), "points": 55, "min_samples": 3,
    },
    "miss-rate-functional": {
        "experiment": "figure3", "jobs": 1, "budget": MISS_RATE_BUDGET,
        "points": 9, "min_samples": 6,
    },
    "headlines-jobs2": {
        "experiment": "headlines", "jobs": 2, "budget": HEADLINE_BUDGET,
        "points": 90, "min_samples": 3,
    },
}

#: Figure 3 sizes per benchmark curve (each a design point of its own
#: when counting the instructions the sweep asks for).
MISS_RATE_SIZES = 9

#: The run ledger rounds per-point seconds to milliseconds.
LEDGER_RESOLUTION_S = 0.001

#: Design points re-simulated on the reference backend per run.
ORACLE_POINTS = 3
#: Hard limit on one child process; a wedged sweep fails the run.
CHILD_TIMEOUT_S = 60.0

#: Points that must lie beyond the tail percentile.
TAIL_BEYOND = 10


def tail_pool(workload: dict) -> int:
    """Points the tail is taken over: one sample's, or for sweeps with
    too few points per sample, the smallest pool a run can have."""
    points = workload["points"]
    return points if points > TAIL_BEYOND else points * workload["min_samples"]


def tail_percentile(workload: dict) -> int:
    """Highest whole percentile with ``TAIL_BEYOND`` points beyond it."""
    return int(100 * (1 - TAIL_BEYOND / tail_pool(workload)))


def quantile(values: list[float], fraction: float, resolution: float) -> float:
    """``fraction`` quantile of ``values``.

    Values rounded to ``resolution`` (the run ledger keeps milliseconds)
    are treated as grouped data: the quantile is interpolated inside the
    rounding interval by the share of tied values below it, as
    :func:`statistics.median_grouped` does for the median.
    """
    if not resolution:
        if fraction == 0.5:
            return statistics.median(values)
        cut = round(fraction * 100)
        return statistics.quantiles(values, n=100, method="inclusive")[cut - 1]
    counts = Counter(values)
    position = fraction * len(values)
    below = 0
    for value in sorted(counts):
        if below + counts[value] >= position:
            share = (position - below) / counts[value]
            return value - resolution / 2 + resolution * share
        below += counts[value]
    return max(values)


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def run_child(cmd: list[str], out: Path, err: Path, cwd: Path, env: dict) -> dict:
    """Run ``cmd`` in its own session; its wall, CPU and peak RSS.

    ``wait4`` reports the child together with the children it reaped
    (the pool workers), so CPU time covers the whole sweep and peak RSS
    is the largest single process."""
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
            stdout=stdout, stderr=stderr, start_new_session=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            _kill_group(proc.pid)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "code": proc.returncode,
    }


def _kill_group(pid: int) -> None:
    """Stop anything left in the child's session (pool workers)."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def output_digest(text: str) -> str:
    """Digest of rendered results, timing lines stripped."""
    kept = [line for line in text.splitlines() if "regenerated in" not in line]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()[:16]


def ledger_points(store: Path) -> tuple[int, int, list[float], float]:
    """(points, failed points, per-point seconds, batch seconds) from
    the run ledger; batch seconds sum every ``execute()`` batch's wall."""
    points = failed = 0
    seconds = []
    batches = 0.0
    ledger = store / "runs.jsonl"
    if not ledger.is_file():
        return 0, 0, [], 0.0
    for line in ledger.read_text().splitlines():
        record = json.loads(line)
        batches += record["wall_seconds"]
        summary = record["summary"]
        points += summary["points"]
        failed += summary["gaps"] + summary["recovered"]
        seconds.extend(
            row["seconds"] for row in record["points"]
            if row["outcome"] == "simulated"
        )
    return points, failed, seconds, batches


def store_bytes(store: Path) -> int:
    return sum(path.stat().st_size for path in store.glob("v*/*/*.json"))


# ---------------------------------------------------------------------------
# The benchmark
# ---------------------------------------------------------------------------


class Bench:
    def __init__(self, root: Path, name: str, seed: int, seconds: int):
        self.root = root
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.functional = self.workload["experiment"] == "figure3"
        self.work = root / ".perfbench" / f"{name}-{os.getpid()}"
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(root / "src")
        self.env = env
        pins = json.loads((HERE / "pins.json").read_text())
        self.pins = pins[self.workload["experiment"]]
        self.samples: list[dict] = []
        self.digests: set[str] = set()
        self.counter = 0
        #: Context printed beside the result.
        self.info = {
            "workload": name, "seed": seed, "backend": "fast",
            "experiment": self.workload["experiment"],
            "jobs": self.workload["jobs"], "budget": self.workload["budget"],
            "benchmarks": self.workload.get("benchmarks", "default"),
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "tail_percentile": tail_percentile(self.workload),
        }

    # -- commands -------------------------------------------------------

    def _run(self, cmd: list[str], path: Path) -> dict:
        return run_child(cmd, path / "out", path / "err", self.root, self.env)

    def _sample_cmd(self, mode: str, *extra: str) -> list[str]:
        return [sys.executable, str(HERE / "sample.py"), mode, *extra]

    def _cli_args(self, store: Path) -> list[str]:
        instructions, timing, functional = self.workload["budget"]
        benchmarks = self.workload.get("benchmarks", ())
        return [
            self.workload["experiment"], "--backend", "fast",
            "--jobs", str(self.workload["jobs"]), "--seed", str(self.seed),
            "--cache-dir", str(store), "--instructions", str(instructions),
            "--timing-warmup", str(timing),
            "--functional-warmup", str(functional),
            *(["--benchmarks", *benchmarks] if benchmarks else []),
        ]

    def asked_instructions(self) -> int:
        """Instructions the sweep's design points ask for (functional
        warm-up plus timing), per sample."""
        if self.functional:
            measured, warm = self.workload["budget"]
            return self.workload["points"] * MISS_RATE_SIZES * (measured + warm)
        return self.workload["points"] * sum(self.workload["budget"])

    # -- one sample ---------------------------------------------------

    def _dir(self) -> Path:
        self.counter += 1
        path = self.work / f"s{self.counter:03d}"
        path.mkdir(parents=True)
        return path

    def sample(self, traced: bool) -> dict:
        path = self._dir()
        store = path / "store"
        trace_out = path / "layers.json"
        if self.functional:
            measured, warm = self.workload["budget"]
            extra = [
                "--seed", str(self.seed), "--instructions", str(measured),
                "--warmup", str(warm), "--points-out", str(path / "points.json"),
            ]
            if traced:
                extra += ["--trace-out", str(trace_out)]
            cmd = self._sample_cmd("functional", *extra)
        elif traced:
            cli = self._cli_args(store)
            if self.workload["jobs"] > 1:
                cli += ["--spans-out", str(path / "spans.jsonl")]
            cmd = self._sample_cmd("cli", "--trace-out", str(trace_out), "--", *cli)
        else:
            cmd = [sys.executable, "-m", "repro", *self._cli_args(store)]
        usage = self._run(cmd, path)
        sample = dict(usage, path=path, traced=traced)
        text = (path / "out").read_text()
        sample["digest"] = output_digest(text)
        if self.functional:
            seconds = (
                json.loads((path / "points.json").read_text())["seconds"]
                if usage["code"] == 0 else []
            )
            swept = sum(seconds)
            sample.update(points=self.workload["points"], failed=0,
                          point_s=seconds)
        else:
            points, failed, seconds, swept = ledger_points(store)
            sample.update(points=points, failed=failed, point_s=seconds)
        # Set-up is the part of the process wall outside the sweep
        # itself: interpreter start, imports, argument parsing and store,
        # engine and backend configuration, plus rendering and exit.
        sample["setup_s"] = usage["wall_s"] - swept
        sample["problems"] = self._check(sample, text)
        if sample["problems"]:
            sample["failed"] = max(sample["points"], 1)
        self.samples.append(sample)
        return sample

    def _check(self, sample: dict, text: str) -> list[str]:
        problems = []
        if sample["code"] != 0:
            err = (sample["path"] / "err").read_text().strip().splitlines()
            problems.append(f"exit {sample['code']}: {err[-1:] or ''}")
        if sample["points"] != self.workload["points"]:
            problems.append(
                f"{sample['points']} points, expected {self.workload['points']}"
            )
        if sample["failed"]:
            problems.append(f"{sample['failed']} failed or gap point(s)")
        if not text.strip() or "nan" in text.lower():
            problems.append("empty or non-finite rendered output")
        pinned = self.pins.get(str(self.seed))
        if pinned is not None and sample["digest"] != pinned:
            problems.append(f"digest {sample['digest']} != pinned {pinned}")
        self.digests.add(sample["digest"])
        if len(self.digests) > 1:
            problems.append("samples of one seed rendered different output")
        return problems

    def oracle(self) -> list[str]:
        """Re-simulate a few of the sweep's points independently."""
        source = next(
            (s for s in self.samples if not s["problems"]), None
        )
        if source is None:
            return []
        path = self._dir()
        if self.functional:
            measured, warm = self.workload["budget"]
            cmd = self._sample_cmd(
                "oracle", "--kind", "functional", "--seed", str(self.seed),
                "--instructions", str(measured), "--warmup", str(warm),
                "--points-out", str(source["path"] / "points.json"),
                "--count", str(ORACLE_POINTS),
            )
        else:
            cmd = self._sample_cmd(
                "oracle", "--kind", "cli", "--seed", str(self.seed),
                "--store", str(source["path"] / "store"),
                "--count", str(ORACLE_POINTS),
            )
        usage = self._run(cmd, path)
        if usage["code"] != 0:
            err = (path / "err").read_text().strip().splitlines()
            return [f"oracle check failed: {err[-3:]}"]
        return []

    # -- the run ------------------------------------------------------

    def measure(self, traced_phase: bool) -> None:
        """Take samples until the next one would overrun ``--seconds``.

        Timed runs need ``min_samples``.  Traced runs take untraced
        samples for a third of the time (at least one) and traced ones
        after (at least one).
        """
        start = time.perf_counter()
        deadline = start + self.seconds
        minimum = self.workload["min_samples"]
        while True:
            now = time.perf_counter()
            longest = max((s["wall_s"] for s in self.samples), default=0.0)
            traced = sum(s["traced"] for s in self.samples)
            untraced = len(self.samples) - traced
            if traced_phase:
                if traced and now + longest > deadline:
                    break
                trace_next = untraced > 0 and (
                    untraced >= minimum or now - start >= self.seconds / 3
                )
            else:
                if untraced >= minimum and now + longest > deadline:
                    break
                trace_next = False
            self.sample(traced=trace_next)

    def end_to_end(self) -> dict:
        samples = self.samples
        pooled = [s for sample in samples for s in sample["point_s"]]
        asked = self.asked_instructions()
        values = {
            "wall_s": [s["wall_s"] for s in samples],
            "cpu_s": [s["cpu_s"] for s in samples],
            "sim_minstr_per_s": [asked / s["wall_s"] / 1e6 for s in samples],
            "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
            "setup_s": [s["setup_s"] for s in samples],
        }
        metrics = {name: statistics.median(v) for name, v in values.items()}
        resolution = 0.0 if self.functional else LEDGER_RESOLUTION_S
        tail = tail_percentile(self.workload) / 100
        groups = (
            [sample["point_s"] for sample in samples]
            if tail_pool(self.workload) == self.workload["points"] else [pooled]
        )
        metrics["point_s_p50"] = quantile(pooled, 0.5, resolution)
        metrics["point_s_tail"] = statistics.median(
            [quantile(group, tail, resolution) for group in groups]
        )
        self.info["quartiles"] = {
            name: [round(x, 6) for x in quartiles(v)] for name, v in values.items()
        }
        self.info["pooled_points"] = len(pooled)
        return metrics

    def layers(self) -> dict:
        untraced = [s["wall_s"] for s in self.samples if not s["traced"]]
        traced = sorted(
            (s for s in self.samples
             if s["traced"] and (s["path"] / "layers.json").is_file()),
            key=lambda s: s["wall_s"],
        )
        if not traced:
            raise RuntimeError("no traced sample finished")
        sample = traced[(len(traced) - 1) // 2]
        snap = json.loads((sample["path"] / "layers.json").read_text())
        own, counts = snap["self_s"], snap["counts"]
        wall = sample["wall_s"]
        pool_start = sum(d["pool_start_s"] for d in snap["dispatch"])
        capacity = sum(d["wall_s"] * d["workers"] for d in snap["dispatch"])
        busy = sum(
            d["utilization"] * d["wall_s"] * d["workers"] for d in snap["dispatch"]
        )
        spans = _span_totals(sample["path"] / "spans.jsonl")
        store = sample["path"] / "store"

        def per(total, count, scale=1e9):
            return total / count * scale if count else 0.0

        m = {
            "workloads.generate_s": own["generate"],
            "workloads.ops": counts["ops"],
            "workloads.ns_per_op": per(own["generate"], counts["ops"]),
            "kernel.warm_s": own["warm"],
            "kernel.warm_replays": counts["warm_replays"],
            "kernel.warm_refs": counts["warm_refs"],
            "kernel.restore_s": own["restore"],
            "kernel.restores": counts["restores"],
            "kernel.restore_ratio": per(counts["restores"], counts["prepares"], 1),
            "kernel.loop_s": own["loop"],
            "kernel.instructions": counts["instructions"],
            "kernel.cycles": counts["cycles"],
            "kernel.ns_per_cycle": per(own["loop"], counts["cycles"]),
            "memory.build_s": own["build"],
            "memory.prefill_s": own["prefill"],
            "memory.access_s": own["access"],
            "memory.accesses": counts["accesses"],
            "memory.ns_per_access": per(own["access"], counts["accesses"]),
            "memory.l1_misses": counts["l1_misses"],
            "memory.sram_s": own["sram"],
            "memory.sram_ops": counts["sram_ops"],
            "engine.serialize_s": own["serialize"],
            "engine.store_s": own["store"],
            "engine.store_bytes": store_bytes(store) if store.is_dir() else 0,
            "engine.points": 0 if self.functional else sample["points"],
            "engine.dispatch_s": own["dispatch"] - pool_start,
            "engine.pool_start_s": pool_start,
            "engine.queue_wait_s": spans.get("chunk.wait", 0.0),
            "engine.worker_busy_s": spans.get("worker.point", 0.0),
            "engine.utilization": busy / capacity if capacity else 0.0,
            "engine.chunks": sum(d["chunks"] for d in snap["dispatch"]),
            "engine.steals": sum(d["steals"] for d in snap["dispatch"]),
            "core.render_s": own["render"],
            "core.other_s": snap["main_s"] - sum(own.values()),
            "core.process_s": wall - snap["main_s"],
            "core.traced_wall_s": wall,
            "core.trace_overhead": wall / statistics.median(untraced) - 1,
        }
        return m

    def run(self, trace: bool) -> dict:
        self.measure(traced_phase=trace)
        problems = [p for s in self.samples for p in s["problems"]]
        attempted = sum(max(s["points"], 1) for s in self.samples)
        failed = sum(s["failed"] for s in self.samples)
        wrong = self.oracle()
        if wrong:
            # Every sample rendered the same output, which is wrong.
            problems += wrong
            failed = attempted
        metrics = self.layers() if trace else self.end_to_end()
        if trace:
            metrics["fail_ratio"] = failed / attempted
        spec = json.loads((self.root / "BENCHMARK.json").read_text())
        units = {
            m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]
        }
        if set(units) != set(metrics):
            raise RuntimeError(
                f"metrics drifted from BENCHMARK.json: {set(units) ^ set(metrics)}"
            )
        self.info.update(samples=len(self.samples), problems=problems[:10],
                         digest=sorted(self.digests))
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }


def _span_totals(path: Path) -> dict:
    """Summed durations from a span sink: chunk queue waits and the
    worker-side per-point wall."""
    totals = {"chunk.wait": 0.0, "worker.point": 0.0}
    if not path.is_file():
        return totals
    for line in path.read_text().splitlines():
        span = json.loads(line)
        if span["name"] == "chunk.wait":
            totals["chunk.wait"] += span["dur"]
        elif span["name"] == "point" and span["proc"].startswith("worker"):
            totals["worker.point"] += span["dur"]
    return totals


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from a source checkout (src/repro missing)",
              file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed, args.seconds)
    try:
        result = bench.run(trace=bool(args.trace))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(bench.info, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
