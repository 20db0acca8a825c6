"""The backend seam itself: selection, trace cache, packed streams."""

import os
import warnings

import pytest

from repro import kernel
from repro.core.experiment import (
    MIN_INSTRUCTIONS,
    ExperimentSettings,
    instructions_override,
)
from repro.kernel import tracecache
from repro.workloads.catalog import benchmark
from repro.workloads.generator import WorkloadGenerator


@pytest.fixture(autouse=True)
def _clean_selection(monkeypatch):
    """Each test starts with no override and no REPRO_BACKEND."""
    monkeypatch.delenv(kernel.BACKEND_ENV, raising=False)
    previous = kernel.select_backend(None)
    yield
    kernel.select_backend(previous)


class TestSelection:
    def test_default_is_reference(self):
        assert kernel.selected_name() == "reference"
        assert kernel.active_backend().name == "reference"

    def test_environment_selects(self, monkeypatch):
        monkeypatch.setenv(kernel.BACKEND_ENV, "fast")
        assert kernel.selected_name() == "fast"
        assert kernel.active_backend().name == "fast"

    def test_blank_environment_means_default(self, monkeypatch):
        monkeypatch.setenv(kernel.BACKEND_ENV, "   ")
        assert kernel.selected_name() == "reference"

    def test_explicit_selection_beats_environment(self, monkeypatch):
        monkeypatch.setenv(kernel.BACKEND_ENV, "fast")
        kernel.select_backend("reference")
        assert kernel.selected_name() == "reference"

    def test_use_backend_scopes_and_exports_env(self):
        with kernel.use_backend("fast") as backend:
            assert backend.name == "fast"
            assert kernel.selected_name() == "fast"
            # Pool workers inherit the choice through the environment.
            assert os.environ[kernel.BACKEND_ENV] == "fast"
        assert kernel.selected_name() == "reference"
        assert kernel.BACKEND_ENV not in os.environ

    def test_use_backend_restores_previous_env(self, monkeypatch):
        monkeypatch.setenv(kernel.BACKEND_ENV, "reference")
        with kernel.use_backend("fast"):
            assert os.environ[kernel.BACKEND_ENV] == "fast"
        assert os.environ[kernel.BACKEND_ENV] == "reference"

    def test_unknown_backend_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown simulation backend"):
            kernel.get_backend("turbo")
        with pytest.raises(ValueError, match="unknown simulation backend"):
            kernel.select_backend("turbo")

    def test_backends_are_singletons(self):
        for name in kernel.BACKEND_NAMES:
            assert kernel.get_backend(name) is kernel.get_backend(name)

    def test_names_normalized(self):
        assert kernel.get_backend(" Fast ") is kernel.get_backend("fast")


class TestTraceCache:
    def setup_method(self):
        tracecache.clear()

    def teardown_method(self):
        tracecache.clear()

    def test_same_identity_shares_artifacts(self):
        spec = benchmark("gcc")
        first = tracecache.artifacts_for(spec, 1, 500)
        assert tracecache.artifacts_for(spec, 1, 500) is first

    def test_distinct_identities_do_not_share(self):
        spec = benchmark("gcc")
        base = tracecache.artifacts_for(spec, 1, 500)
        assert tracecache.artifacts_for(spec, 2, 500) is not base
        assert tracecache.artifacts_for(spec, 1, 600) is not base
        assert tracecache.artifacts_for(benchmark("li"), 1, 500) is not base

    def test_lru_evicts_oldest(self):
        spec = benchmark("gcc")
        first = tracecache.artifacts_for(spec, 0, 100)
        for seed in range(1, tracecache.CACHE_ENTRIES + 1):
            tracecache.artifacts_for(spec, seed, 100)
        assert tracecache.artifacts_for(spec, 0, 100) is not first

    def test_recent_use_survives_eviction(self):
        spec = benchmark("gcc")
        first = tracecache.artifacts_for(spec, 0, 100)
        for seed in range(1, tracecache.CACHE_ENTRIES):
            tracecache.artifacts_for(spec, seed, 100)
        tracecache.artifacts_for(spec, 0, 100)  # refresh
        tracecache.artifacts_for(spec, tracecache.CACHE_ENTRIES, 100)
        assert tracecache.artifacts_for(spec, 0, 100) is first

    def test_timing_stream_replays_identical_tape(self):
        artifacts = tracecache.artifacts_for(benchmark("gcc"), 1, 200)
        first = [next(artifacts.timing_stream()) for _ in range(1)]
        a = artifacts.timing_stream()
        b = artifacts.timing_stream()
        taken_a = [next(a) for _ in range(50)]
        taken_b = [next(b) for _ in range(50)]
        # Replays hand out the very same MicroOp objects, in order.
        assert all(x is y for x, y in zip(taken_a, taken_b))
        assert taken_a[0] is first[0]

    def test_warm_references_must_precede_timing(self):
        # With a positive warm-up budget the tape generates the warm
        # prefix itself; with none, a late warm request would replay the
        # generator out of RNG order -- the guard refuses.
        artifacts = tracecache.artifacts_for(benchmark("gcc"), 1, 0)
        next(artifacts.timing_stream())  # starts the timing generator
        with pytest.raises(RuntimeError, match="warm-up stream"):
            artifacts.warm_references()

    def test_timing_tape_generates_warm_prefix_first(self):
        artifacts = tracecache.artifacts_for(benchmark("gcc"), 1, 200)
        next(artifacts.timing_stream())
        # The warm stream was materialized as a side effect, so the
        # timing tape started from the post-warm-up RNG state.
        assert artifacts.warm_references() is not None

    def test_warm_references_cached_before_timing(self):
        artifacts = tracecache.artifacts_for(benchmark("gcc"), 1, 200)
        warm = artifacts.warm_references()
        next(artifacts.timing_stream())
        assert artifacts.warm_references() is warm


class TestPackedReferences:
    def test_packed_matches_memory_references(self):
        spec = benchmark("gcc")
        packed = WorkloadGenerator(spec, seed=3).packed_references(400)
        refs = WorkloadGenerator(spec, seed=3).memory_references(400)
        unpacked = [(bool(word & 1), word >> 1) for word in packed]
        assert unpacked == refs

    def test_footprint_lines_cached_and_exact(self):
        spec = benchmark("tomcatv")
        artifacts = tracecache.artifacts_for(spec, 1, 100)
        lines = artifacts.footprint_lines(32)
        assert lines == WorkloadGenerator(spec, 1).footprint_lines(32)
        assert artifacts.footprint_lines(32) is lines


class TestInstructionsOverride:
    def test_unset_means_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_INSTRUCTIONS", raising=False)
        assert instructions_override() is None

    def test_override_pins_measured_window(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "5000")
        settings = ExperimentSettings(instructions=12_000).scaled()
        assert settings.instructions == 5000

    def test_override_leaves_warmups_alone(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "5000")
        base = ExperimentSettings(instructions=12_000)
        settings = base.scaled()
        assert settings.timing_warmup == base.timing_warmup
        assert settings.functional_warmup == base.functional_warmup

    def test_small_value_clamps_to_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "10")
        with pytest.warns(RuntimeWarning, match="floor"):
            assert instructions_override() == MIN_INSTRUCTIONS

    def test_garbage_ignored_with_warning(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "lots")
        with pytest.warns(RuntimeWarning, match="not an integer"):
            assert instructions_override() is None

    def test_nonpositive_ignored_with_warning(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "-4")
        with pytest.warns(RuntimeWarning, match="positive"):
            assert instructions_override() is None

    def test_matching_override_is_noop(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "12000")
        base = ExperimentSettings(instructions=12_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert base.scaled().instructions == 12_000


def _cache_state(memory):
    """Everything functional warm-up writes, in comparable form."""
    from repro.kernel.fast import _back_cache

    line_buffer = memory.line_buffer
    return (
        memory.l1.snapshot_state(),
        None if line_buffer is None else line_buffer._cache.snapshot_state(),
        _back_cache(memory).snapshot_state(),
    )


class TestPrefillMemo:
    """The fast backend's memo of the backside state after prefill."""

    SETTINGS = ExperimentSettings(functional_warmup=3000)

    def setup_method(self):
        tracecache.clear()

    def teardown_method(self):
        tracecache.clear()

    @pytest.fixture
    def prefills(self, monkeypatch):
        """Counts real ``MemorySystem.prefill_backside`` calls."""
        from repro.memory.hierarchy import MemorySystem

        calls = []
        original = MemorySystem.prefill_backside

        def counting(memory, lines):
            calls.append(memory)
            return original(memory, lines)

        monkeypatch.setattr(MemorySystem, "prefill_backside", counting)
        return calls

    @staticmethod
    def _system(**overrides):
        from repro.memory.hierarchy import MemoryConfig, MemorySystem

        return MemorySystem(MemoryConfig(**overrides))

    def _prepare(self, memory, backend="fast"):
        kernel.get_backend(backend).prepare(
            benchmark("database"), memory, self.SETTINGS
        )
        return memory

    def _artifacts(self):
        return tracecache.artifacts_for(
            benchmark("database"),
            self.SETTINGS.seed,
            self.SETTINGS.functional_warmup,
        )

    def test_l1_sizes_share_one_prefill(self, prefills):
        small = self._prepare(self._system(l1_size=16 * 1024))
        large = self._prepare(self._system(l1_size=64 * 1024))
        assert len(prefills) == 1
        assert len(self._artifacts().prefill_states) == 1
        # The restored prefill warms to the reference path's state.
        for fast_system, l1_size in ((small, 16 * 1024), (large, 64 * 1024)):
            oracle = self._prepare(self._system(l1_size=l1_size), "reference")
            assert _cache_state(fast_system) == _cache_state(oracle)

    def test_line_size_and_mode_get_their_own_entries(self, prefills):
        from repro.memory.dram_cache import DramCacheConfig

        self._prepare(self._system())
        self._prepare(self._system(l1_line=64))
        self._prepare(self._system(dram=DramCacheConfig()))
        assert len(prefills) == 3
        assert len(self._artifacts().prefill_states) == 3
        restored = self._prepare(
            self._system(l1_line=64, l1_size=16 * 1024)
        )
        assert len(prefills) == 3
        oracle = self._prepare(
            self._system(l1_line=64, l1_size=16 * 1024), "reference"
        )
        assert _cache_state(restored) == _cache_state(oracle)

    def test_used_system_skips_both_memos(self, prefills):
        self._prepare(self._system())  # populate both memos
        used = self._system()
        used.load(0, 0)
        self._prepare(used)
        assert len(prefills) == 2
        artifacts = self._artifacts()
        assert len(artifacts.prefill_states) == 1
        assert len(artifacts.warm_states) == 1
        oracle = self._system()
        oracle.load(0, 0)
        self._prepare(oracle, "reference")
        assert _cache_state(used) == _cache_state(oracle)
