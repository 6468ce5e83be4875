"""The memoized sweep/measurement engine.

Training sweeps (66 partition-space points per launch on the 10% grid)
and serving-time neighbourhood re-searches repeatedly simulate the same
per-device chunks: a device's timeline depends only on (kernel,
instance, device, chunk, iterations), and across a sweep the grid
chunks repeat heavily.  :class:`SweepEngine` caches each chunk's
deterministic command *tape* (noise-free per-command durations) and
composes makespans from the cached tapes, turning a sweep from
O(points × devices) full simulations into O(unique chunks per device)
plannings plus cheap compositions.

Noise fidelity: tapes are cached noise-free; when the runner carries a
measurement-noise model the engine perturbs each cached duration at
composition time through the *runner's own* per-device noise streams,
in the exact order the unmemoized scheduler would have enqueued the
commands — so memoized measurements are bit-identical to unmemoized
ones at ``noise_sigma=0`` and statistically indistinguishable (same
stream, same labels, same order) under noise.  With no noise model at
all the finished result, and the finished median-of-repetitions run,
are cached per (request, partitioning); a cache hit still books every
repetition into the runner's session stats.

Energy rides on the same tapes: each cached command carries its
average dynamic watts next to its duration, and compositions replay
the scheduler's timeline arithmetic so composed joules (idle power
over the makespan included) stay bit-identical to the unmemoized
path too — see :mod:`repro.energy`.
"""

from .sweep import EngineStats, SweepEngine

__all__ = ["EngineStats", "SweepEngine"]
