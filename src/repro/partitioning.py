"""Task partitionings: how an ND-range is split across devices.

Section 2.1 of the paper: *"p is selected from a discretized
partitioning space with a stepsize of 10%."*  A partitioning assigns
each device of the machine an integer percentage of the total workload;
percentages sum to 100.  For the paper's three-device machines with a
10% step the space has C(12,2) = 66 points, including the pure
single-device corners that double as the CPU-only / GPU-only baselines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

__all__ = [
    "Partitioning",
    "partition_space",
    "split_items",
    "neighborhood",
    "DEFAULT_STEP_PERCENT",
]

#: The paper's discretization step.
DEFAULT_STEP_PERCENT = 10


@dataclass(frozen=True, order=True)
class Partitioning:
    """An assignment of workload percentages to devices.

    ``shares[i]`` is the integer percentage of work items executed by
    device ``i`` (device order is the machine's device order: CPU first,
    then the GPUs).
    """

    shares: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.shares:
            raise ValueError("a partitioning needs at least one device share")
        if any(s < 0 or s > 100 for s in self.shares):
            raise ValueError(f"shares must be percentages in [0, 100]: {self.shares}")
        if sum(self.shares) != 100:
            raise ValueError(f"shares must sum to 100: {self.shares}")

    @classmethod
    def single_device(cls, device_index: int, num_devices: int) -> "Partitioning":
        """All work on one device (the paper's default strategies)."""
        if not 0 <= device_index < num_devices:
            raise ValueError("device_index out of range")
        shares = [0] * num_devices
        shares[device_index] = 100
        return cls(tuple(shares))

    @classmethod
    def even(cls, num_devices: int, step: int = DEFAULT_STEP_PERCENT) -> "Partitioning":
        """The closest-to-even split representable on the step grid."""
        if num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if step < 1 or 100 % step != 0:
            raise ValueError(f"step must be a divisor of 100, got {step}")
        base = (100 // num_devices) // step * step
        shares = [base] * num_devices
        # The deficit is a multiple of step (both 100 and base*num_devices
        # are), so round-robin top-ups land exactly on a 100% sum.
        deficit = 100 - base * num_devices
        for i in range(deficit // step):
            shares[i % num_devices] += step
        return cls(tuple(shares))

    @property
    def num_devices(self) -> int:
        return len(self.shares)

    @property
    def active_devices(self) -> tuple[int, ...]:
        """Indices of devices with a non-zero share."""
        return tuple(i for i, s in enumerate(self.shares) if s > 0)

    @property
    def is_single_device(self) -> bool:
        return len(self.active_devices) == 1

    def fraction(self, device_index: int) -> float:
        """Share of device ``device_index`` as a fraction in [0, 1]."""
        return self.shares[device_index] / 100.0

    @cached_property
    def label(self) -> str:
        """Compact display form, e.g. ``"50/30/20"``."""
        return "/".join(str(s) for s in self.shares)

    @classmethod
    def from_label(cls, label: str) -> "Partitioning":
        """Parse the :attr:`label` form back into a Partitioning."""
        return cls(tuple(int(p) for p in label.split("/")))

    def __str__(self) -> str:
        return self.label


@lru_cache(maxsize=None)
def partition_space(
    num_devices: int, step_percent: int = DEFAULT_STEP_PERCENT
) -> tuple[Partitioning, ...]:
    """All partitionings of 100% over ``num_devices`` in ``step_percent`` steps.

    The result is ordered deterministically (lexicographic in shares) so
    that class indices are stable across runs — the ML layer uses the
    position in this tuple as the class label.
    """
    if num_devices < 1:
        raise ValueError("num_devices must be >= 1")
    if step_percent < 1 or 100 % step_percent != 0:
        raise ValueError("step_percent must divide 100")
    steps = 100 // step_percent
    out: list[Partitioning] = []
    for combo in itertools.combinations_with_replacement(range(num_devices), steps):
        shares = [0] * num_devices
        for dev in combo:
            shares[dev] += step_percent
        out.append(Partitioning(tuple(shares)))
    return tuple(sorted(set(out)))


def neighborhood(
    partitioning: Partitioning, step_percent: int = DEFAULT_STEP_PERCENT
) -> tuple[Partitioning, ...]:
    """All grid points one ``step_percent`` move away from a partitioning.

    A neighbour shifts one step of workload from one device to another;
    the result is the local search frontier used by the online
    adaptation path to refine a mispredicted partitioning without
    paying for the full 66-point sweep.

    A degenerate grid — a single device, or a step too coarse to move —
    has no distinct neighbours; the frontier is then the input point
    itself, never empty, so consumers can always evaluate *something*.
    """
    if step_percent < 1 or step_percent > 100:
        raise ValueError("step_percent must be in [1, 100]")
    out: list[Partitioning] = []
    shares = partitioning.shares
    for src in range(len(shares)):
        if shares[src] < step_percent:
            continue
        for dst in range(len(shares)):
            if dst == src or shares[dst] + step_percent > 100:
                continue
            moved = list(shares)
            moved[src] -= step_percent
            moved[dst] += step_percent
            out.append(Partitioning(tuple(moved)))
    if not out:
        return (partitioning,)
    return tuple(sorted(set(out)))


@lru_cache(maxsize=65536)
def split_items(
    total_items: int,
    partitioning: Partitioning,
    granularity: int = 1,
) -> tuple[tuple[int, int], ...]:
    """Split ``total_items`` into per-device (offset, count) chunks.

    Chunks are contiguous, disjoint, cover the range exactly, and are
    aligned to ``granularity`` (the work-group size) except that the last
    active device absorbs the remainder.  Uses the largest-remainder
    method so a 33/33/34-style request cannot lose or duplicate items.

    The result is memoized: the split is a pure function of its three
    (hashable) arguments, and both the sweep engine and the runtime
    scheduler ask for the same grid splits over and over.
    """
    if total_items < 0:
        raise ValueError("total_items must be non-negative")
    if granularity < 1:
        raise ValueError("granularity must be >= 1")
    n = partitioning.num_devices
    ideal = [total_items * s / 100.0 for s in partitioning.shares]
    counts = [int(x // granularity) * granularity for x in ideal]
    leftover = total_items - sum(counts)
    # Hand out whole granules one at a time in largest-remainder order,
    # cycling over the active devices: every active device gets a fair
    # shot at a granule before any device receives a second one.  (Each
    # active device's fractional remainder is < granularity, so in fact
    # the cycle never wraps.)
    remainders = [(ideal[i] - counts[i], -i) for i in range(n)]
    active_order = [
        i
        for i in sorted(range(n), key=lambda i: remainders[i], reverse=True)
        if partitioning.shares[i] > 0
    ]
    for pos in itertools.count():
        if leftover < granularity or not active_order:
            break
        counts[active_order[pos % len(active_order)]] += granularity
        leftover -= granularity
    # Final sub-granule remainder goes to the last active device.
    if leftover > 0:
        last_active = partitioning.active_devices[-1]
        counts[last_active] += leftover
    offsets = []
    cursor = 0
    for c in counts:
        offsets.append(cursor)
        cursor += c
    assert cursor == total_items, (cursor, total_items, counts)
    return tuple((offsets[i], counts[i]) for i in range(n))
