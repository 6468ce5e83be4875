"""Equivalence tests for the memoized sweep engine.

The engine's contract is strict: memoized sweeps are *bit-identical* to
the unmemoized Runner path at ``noise_sigma=0``, and statistically
unchanged under noise (the engine samples the same per-device noise
streams in the same enqueue order, so with equal seeds the two paths
produce the same draws).
"""

import pytest

from repro.benchsuite import get_benchmark
from repro.core.trainer import sweep_partitionings
from repro.engine import SweepEngine
from repro.machines import MC1, MC2
from repro.partitioning import Partitioning, partition_space
from repro.runtime import Runner

#: Chunk-shape variety: streaming (SPLIT), stencil (HALO, iterated),
#: reduction (REDUCED) and a FULL-broadcast matrix kernel.
PROGRAMS = {
    "vec_add": 1 << 14,
    "stencil2d": 32,
    "histogram": 4096,
    "mat_mul": 64,
}


def _raw_sweep(runner, request, space, repetitions=1):
    """The pre-engine trainer loop: one full simulation per point."""
    return {
        p.label: runner.time_of(request, p, repetitions=repetitions) for p in space
    }


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_memoized_sweep_bit_identical_without_noise(program):
    bench = get_benchmark(program)
    instance = bench.make_instance(PROGRAMS[program], seed=0)
    request = bench.request(instance)
    space = partition_space(MC2.num_devices, 20)

    raw = _raw_sweep(Runner(MC2), request, space)
    engine = SweepEngine(Runner(MC2))
    memoized = engine.sweep(request, space)

    assert memoized == raw  # bit-identical, not approximately equal
    assert engine.stats.tape_hits > 0


@pytest.mark.parametrize("program", ["stencil2d", "mat_mul"])
def test_memoized_sweep_matches_under_noise(program):
    """Same seed, same noise stream: the paths agree draw for draw."""
    bench = get_benchmark(program)
    instance = bench.make_instance(PROGRAMS[program], seed=0)
    request = bench.request(instance)
    space = partition_space(MC2.num_devices, 20)

    raw = _raw_sweep(
        Runner(MC2, noise_sigma=0.3, seed=11), request, space, repetitions=3
    )
    memoized = SweepEngine(Runner(MC2, noise_sigma=0.3, seed=11)).sweep(
        request, space, repetitions=3
    )

    assert set(raw) == set(memoized)
    for label in raw:
        assert memoized[label] == pytest.approx(raw[label], rel=1e-12)
    # The sweep is genuinely noisy (not degenerate-deterministic).
    clean = _raw_sweep(Runner(MC2), request, space)
    assert any(memoized[label] != clean[label] for label in clean)


def test_engine_works_across_machines():
    bench = get_benchmark("saxpy")
    instance = bench.make_instance(1 << 12, seed=0)
    request = bench.request(instance)
    for machine in (MC1, MC2):
        space = partition_space(machine.num_devices, 20)
        raw = _raw_sweep(Runner(machine), request, space)
        assert SweepEngine(Runner(machine)).sweep(request, space) == raw


def test_engine_records_session_stats_like_runner():
    bench = get_benchmark("vec_add")
    request = bench.request(bench.make_instance(1 << 12, seed=0))
    space = partition_space(MC2.num_devices, 20)

    r_raw, r_mem = Runner(MC2), Runner(MC2)
    _raw_sweep(r_raw, request, space, repetitions=2)
    SweepEngine(r_mem).sweep(request, space, repetitions=2)

    assert r_mem.stats.executions == r_raw.stats.executions
    assert r_mem.stats.simulated_s == pytest.approx(r_raw.stats.simulated_s)
    assert r_mem.stats.device_busy_s == pytest.approx(r_raw.stats.device_busy_s)


def test_repeated_measurements_hit_the_result_cache():
    bench = get_benchmark("vec_add")
    request = bench.request(bench.make_instance(1 << 12, seed=0))
    engine = SweepEngine(Runner(MC2))
    p = Partitioning((70, 20, 10))

    first = engine.time_of(request, p)
    misses = engine.stats.tape_misses
    second = engine.time_of(request, p)
    assert second == first
    assert engine.stats.tape_misses == misses  # fully served from caches
    # Every composition still counts as an execution in the telemetry.
    assert engine.runner.stats.executions == 2


def _session(runner):
    s = runner.stats
    return (s.executions, s.simulated_s, s.energy_j, s.device_busy_s, s.device_idle_s)


def test_noise_free_runs_are_memoized_without_changing_telemetry():
    bench = get_benchmark("vec_add")
    request = bench.request(bench.make_instance(1 << 12, seed=0))
    p = Partitioning((60, 30, 10))
    memo = SweepEngine(Runner(MC2))
    fresh = SweepEngine(Runner(MC2))

    runs = [memo.measure(request, p, repetitions=3) for _ in range(3)]
    fresh_runs = []
    for _ in range(3):
        fresh.reset()  # forces every measurement to recompose
        fresh_runs.append(fresh.measure(request, p, repetitions=3))

    assert runs[1] is runs[0] and runs[2] is runs[0]
    assert runs[0] == fresh_runs[0]
    # One composition and one session record per repetition, hit or not.
    assert memo.stats.compositions == fresh.stats.compositions == 9
    assert _session(memo.runner) == _session(fresh.runner)
    # Repetition counts are part of the key.
    assert memo.measure(request, p, repetitions=1).repetitions == 1


def test_drift_invalidates_memoized_runs():
    bench = get_benchmark("vec_add")
    request = bench.request(bench.make_instance(1 << 12, seed=0))
    p = Partitioning((0, 50, 50))
    engine = SweepEngine(Runner(MC2))
    before = engine.measure(request, p)
    engine.runner.apply_drift(0.5, device_index=1)
    after = engine.measure(request, p)

    drifted = Runner(MC2)
    drifted.apply_drift(0.5, device_index=1)
    assert after.median_s > before.median_s
    assert after == SweepEngine(drifted).measure(request, p)


def test_measure_validates_arguments():
    bench = get_benchmark("vec_add")
    request = bench.request(bench.make_instance(1 << 12, seed=0))
    engine = SweepEngine(Runner(MC2))
    with pytest.raises(ValueError):
        engine.measure(request, Partitioning((100, 0)), repetitions=1)
    with pytest.raises(ValueError):
        engine.measure(request, Partitioning((100, 0, 0)), repetitions=0)


def test_reset_clears_caches_but_keeps_correctness():
    bench = get_benchmark("vec_add")
    request = bench.request(bench.make_instance(1 << 12, seed=0))
    engine = SweepEngine(Runner(MC2))
    p = Partitioning((50, 30, 20))
    before = engine.time_of(request, p)
    engine.reset()
    assert engine.time_of(request, p) == before


def test_trainer_sweep_uses_engine_and_matches_legacy_loop():
    """sweep_partitionings (now engine-backed) equals the raw loop."""
    bench = get_benchmark("stencil2d")
    instance = bench.make_instance(32, seed=0)
    space = partition_space(MC2.num_devices, 20)

    raw = _raw_sweep(Runner(MC2), bench.request(instance), space)
    swept = sweep_partitionings(Runner(MC2), bench, instance, space)
    assert swept == raw
