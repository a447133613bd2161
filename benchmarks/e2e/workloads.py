"""Workload definitions and seeded inputs for the end-to-end benchmark.

Every workload searches synthetic Brightkite check-ins at 4 decimal digits
(the paper's Table III setting).  Query centres are existing check-ins
drawn with Zipf(s=1) popularity, so every query has at least one match and
hot spots repeat.  Everything here is a pure function of the seed: the
same seed gives the same points, circles, upload batches and operation
schedule, while the services only ever see the encrypted forms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.core.geometry import Circle, distance_squared
from repro.datasets.brightkite import (
    checkin_to_point,
    data_space_for_digits,
    generate_checkins,
)

DIGITS = 4
SPACE = data_space_for_digits(DIGITS)

#: Seconds of load one round measures on a 2-vCPU host (see the README);
#: a run of ``--seconds S`` makes ``S / ROUND_SECONDS`` identical rounds.
ROUND_SECONDS = 3.5

#: Records per ``upload`` request while setting up.
SETUP_BATCH = 100
#: Records per ``upload`` op in the mixed workload.
MIXED_UPLOAD = 10
#: Records per ``delete`` op in the mixed workload.
MIXED_DELETE = 5


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload: deployment shape, dataset size and traffic shape."""

    name: str
    backend: str
    records: int
    radius: int
    #: Partitions behind a coordinator; 0 serves one shard directly.
    partitions: int
    replication: int
    #: ``repro serve --workers`` of every shard.
    workers: int
    #: Closed loop: requests kept in flight.  Open loop: unused.
    concurrency: int
    #: Open loop arrival rate in ops/s; 0 selects the closed loop.
    rate: float
    #: Open loop op counts per block of the schedule:
    #: (search, verified search, upload, delete).
    mix: tuple[int, int, int, int]
    #: Distinct query tokens, cycled through by the load.
    pool: int
    #: Ops one round sends: a fixed query count for a closed loop, the
    #: schedule's length for the open loop.  Every round on every commit
    #: does this same work, sized to take at most about ``ROUND_SECONDS``.
    ops: int

    @property
    def shards(self) -> int:
        """Backend ``repro serve`` processes."""
        return max(1, self.partitions) * self.replication

    @property
    def coordinated(self) -> bool:
        """Whether a ``repro coordinate`` front end routes the traffic."""
        return self.partitions > 0

    @property
    def open_loop(self) -> bool:
        """Whether ops arrive on a fixed schedule instead of a closed loop."""
        return self.rate > 0


SPECS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="scan_fast",
            backend="fast",
            records=1000,
            radius=3,
            partitions=0,
            replication=1,
            workers=2,
            concurrency=2,
            rate=0.0,
            mix=(1, 0, 0, 0),
            pool=64,
            ops=40,
        ),
        WorkloadSpec(
            name="pairing_scan",
            backend="pairing",
            records=8,
            radius=1,
            partitions=0,
            replication=1,
            workers=2,
            concurrency=2,
            rate=0.0,
            mix=(1, 0, 0, 0),
            pool=16,
            ops=32,
        ),
        WorkloadSpec(
            name="coord_small",
            backend="fast",
            records=32,
            radius=1,
            partitions=2,
            replication=1,
            workers=1,
            concurrency=8,
            rate=0.0,
            mix=(1, 0, 0, 0),
            pool=256,
            ops=1400,
        ),
        WorkloadSpec(
            name="cluster_mixed",
            backend="fast",
            records=400,
            radius=3,
            partitions=2,
            replication=2,
            workers=1,
            concurrency=0,
            rate=8.0,
            mix=(13, 2, 4, 1),
            pool=64,
            ops=40,
        ),
    )
}


@dataclass(frozen=True)
class MixedOp:
    """One scheduled op of the open-loop workload.

    ``kind`` is ``search``, ``verified``, ``upload`` or ``delete``;
    ``arg`` is a query-pool index, an upload-batch index, or the
    identifiers to delete.
    """

    kind: str
    arg: int | tuple[int, ...]


@dataclass
class Dataset:
    """The plaintext side of one workload: what the benchmark checks against."""

    #: identifier → integer point, for the records uploaded at set-up.
    points: dict[int, tuple[int, int]]
    #: The query circles, one per pool entry (Zipf-chosen centres).
    circles: list[Circle]
    #: Fresh records the mixed workload uploads, ``MIXED_UPLOAD`` per batch.
    upload_batches: list[dict[int, tuple[int, int]]]
    #: The open-loop schedule (empty for closed loops).
    plan: list[MixedOp]

    def matches(self, query: int, extra: bool = False) -> tuple[int, ...]:
        """Sorted identifiers inside circle *query* (plaintext filter).

        With *extra*, records of every planned upload batch count too —
        the candidate set the mixed workload's history check starts from.
        """
        circle = self.circles[query]
        pools = [self.points]
        if extra:
            pools.extend(self.upload_batches)
        return tuple(
            sorted(
                identifier
                for pool in pools
                for identifier, point in pool.items()
                if distance_squared(point, circle.center) <= circle.r_squared
            )
        )


def zipf_choices(items: list, count: int, rng: random.Random) -> list:
    """Draw *count* items with Zipf(s=1) popularity over a seeded ranking."""
    ranked = list(items)
    rng.shuffle(ranked)
    weights = [1.0 / rank for rank in range(1, len(ranked) + 1)]
    return rng.choices(ranked, weights=weights, k=count)


def make_dataset(spec: WorkloadSpec, seed: int) -> Dataset:
    """Build the seeded plaintext inputs for one run of *spec*.

    The open-loop schedule holds one round's ``spec.ops`` ops; every
    round replays it on a fresh deployment.
    """
    rng = random.Random(f"{spec.name}/{seed}/data")
    ops = spec.ops if spec.open_loop else 0
    per_block = sum(spec.mix)
    blocks = math.ceil(ops / per_block) if ops else 0
    upload_count = blocks * spec.mix[2]
    checkins = generate_checkins(
        spec.records + upload_count * MIXED_UPLOAD, rng, digits=DIGITS
    )
    points_list = [checkin_to_point(c, DIGITS) for c in checkins]
    points = dict(enumerate(points_list[: spec.records]))
    upload_batches = [
        {
            spec.records + batch * MIXED_UPLOAD + k: points_list[
                spec.records + batch * MIXED_UPLOAD + k
            ]
            for k in range(MIXED_UPLOAD)
        }
        for batch in range(upload_count)
    ]
    centres = zipf_choices(sorted(points), spec.pool, rng)
    circles = [Circle.from_radius(points[c], spec.radius) for c in centres]
    plan: list[MixedOp] = []
    if ops:
        # Deletes take initial records that are never query centres, so
        # every query keeps at least one match for the whole run.
        deletable = sorted(set(points) - set(centres))
        rng.shuffle(deletable)
        searches = uploads = 0
        for _ in range(blocks):
            block = [
                kind
                for kind, count in zip(
                    ("search", "verified", "upload", "delete"), spec.mix
                )
                for _ in range(count)
            ]
            rng.shuffle(block)
            for kind in block:
                if kind in ("search", "verified"):
                    plan.append(MixedOp(kind, searches % spec.pool))
                    searches += 1
                elif kind == "upload":
                    plan.append(MixedOp(kind, uploads))
                    uploads += 1
                else:
                    doomed = tuple(sorted(deletable[:MIXED_DELETE]))
                    del deletable[:MIXED_DELETE]
                    plan.append(MixedOp(kind, doomed))
        plan = plan[:ops]
    return Dataset(
        points=points,
        circles=circles,
        upload_batches=upload_batches,
        plan=plan,
    )
