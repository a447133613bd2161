"""Drive a running deployment from one asyncio process.

All load goes over one :class:`~repro.service.aio.AsyncServiceClient`
connection, with no extra threads or connections, so the numbers measure
the servers rather than the load generator.  Every answer is checked:

* closed loops (``repro.loadgen.run_closed_loop``, a fixed query count)
  compare each result with the plaintext filter over the benchmark's own
  copy of the points;
* the mixed open loop checks each search against the acknowledged write
  history (:class:`History`), and every verified search must also pass
  :meth:`~repro.integrity.ResultVerifier.verify` against the client's
  :class:`~repro.integrity.IntegrityState`.

Latencies go into ``repro.loadgen`` recorders.  Open-loop latency runs
from the op's scheduled send time, so a stall also charges the ops queued
behind it.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import time
from dataclasses import dataclass, field

from repro.cloud.messages import UploadDataset
from repro.errors import IntegrityError, ReproError
from repro.loadgen import LatencyRecorder, LoadResult, run_closed_loop
from repro.service import AsyncServiceClient

HOST = "127.0.0.1"


@dataclass
class Window:
    """What one measured window observed.

    ``load`` is the load runner's result (ok/busy/deadline/failed counts
    and the search latency recorder); the rest is what it does not hold.
    """

    load: LoadResult
    #: Searches answered wrongly (counted apart from ``load.failed``).
    wrong: int = 0
    #: Load-generator CPU seconds spent during the window.
    cpu_s: float = 0.0
    #: Open loop only: verified-search, upload and delete latencies.
    verified: LatencyRecorder = field(default_factory=LatencyRecorder)
    upload: LatencyRecorder = field(default_factory=LatencyRecorder)
    delete: LatencyRecorder = field(default_factory=LatencyRecorder)

    @property
    def attempted(self) -> int:
        """Ops sent."""
        return self.load.requested

    @property
    def failed(self) -> int:
        """Busy, deadline, failed and wrong answers together."""
        return self.load.busy + self.load.deadline + self.load.failed + self.wrong


def client(port: int) -> AsyncServiceClient:
    """A multiplexing client with the library defaults."""
    return AsyncServiceClient(HOST, port)


async def upload_all(conn: AsyncServiceClient, records, batch: int) -> None:
    """Upload *records* in request-sized batches, in order."""
    for start in range(0, len(records), batch):
        await conn.upload(UploadDataset(records=tuple(records[start:start + batch])))


async def search_ids(conn: AsyncServiceClient, payload: bytes) -> tuple[int, ...]:
    """One search; the sorted matching identifiers."""
    response, _stats = await conn.search(payload)
    return tuple(sorted(response.identifiers))


async def closed_window(
    conn: AsyncServiceClient,
    payloads: list[bytes],
    expected: list[tuple[int, ...]],
    concurrency: int,
    count: int,
) -> Window:
    """Send *count* searches with *concurrency* in flight and check each.

    Query *i* sends ``payloads[i % len]``; its answer must equal
    ``expected[i % len]``.
    """
    sends = [payloads[i % len(payloads)] for i in range(count)]
    cpu_started = time.process_time()
    load = await run_closed_loop(conn, sends, concurrency, collect_results=True)
    window = Window(load, cpu_s=time.process_time() - cpu_started)
    window.wrong = sum(
        1
        for i, got in enumerate(load.results)
        if got is not None and got != expected[i % len(expected)]
    )
    return window


class History:
    """Acknowledged-write history for checking searches under writes.

    Events are stamped with a logical clock.  A search sent at ``s`` and
    answered at ``r`` must return every in-circle record whose upload was
    acked before ``s`` and whose delete was not yet sent by ``r``, and may
    return only in-circle records whose upload was sent before ``r`` and
    whose delete was not acked before ``s``.
    """

    def __init__(self, initial):
        self.clock = 0
        self.upload_sent = {identifier: 0 for identifier in initial}
        self.upload_acked = dict(self.upload_sent)
        self.delete_sent: dict[int, int] = {}
        self.delete_acked: dict[int, int] = {}

    def tick(self) -> int:
        """Advance and return the logical clock."""
        self.clock += 1
        return self.clock

    def stamp(self, log: dict[int, int], identifiers) -> None:
        """Record one event for *identifiers* in *log*."""
        now = self.tick()
        for identifier in identifiers:
            log[identifier] = now

    def check(self, candidates, got, sent: int, answered: int) -> bool:
        """Whether *got* is a legal answer for the in-circle *candidates*."""
        never = math.inf
        must = {
            i
            for i in candidates
            if self.upload_acked.get(i, never) < sent
            and self.delete_sent.get(i, never) > answered
        }
        may = {
            i
            for i in candidates
            if self.upload_sent.get(i, never) < answered
            and self.delete_acked.get(i, never) > sent
        }
        returned = set(got)
        return must <= returned <= may


class WriteGate:
    """Verified searches and writes exclude each other.

    A verified search checks the shards' accumulators against the
    client's expected state, which is exact only while no write is in
    flight; plain searches are not gated.
    """

    def __init__(self) -> None:
        self._writes = 0
        self._reads = 0
        self._changed = asyncio.Condition()

    @contextlib.asynccontextmanager
    async def _hold(self, mine: str, theirs: str):
        async with self._changed:
            await self._changed.wait_for(lambda: getattr(self, theirs) == 0)
            setattr(self, mine, getattr(self, mine) + 1)
        try:
            yield
        finally:
            async with self._changed:
                setattr(self, mine, getattr(self, mine) - 1)
                self._changed.notify_all()

    def writing(self):
        """Hold while an upload or delete is in flight."""
        return self._hold("_writes", "_reads")

    def verifying(self):
        """Hold while a verified search is in flight."""
        return self._hold("_reads", "_writes")


@dataclass
class MixedContext:
    """What the open loop needs besides the connection."""

    plan: list
    rate: float
    payloads: list[bytes]
    #: Per pool query: in-circle identifiers over all points ever uploaded.
    candidates: list[tuple[int, ...]]
    #: Per upload batch: the encrypted, tagged records.
    batches: list[tuple]
    history: History
    verifier: object
    tag_keys: object
    state: object


async def open_mixed(conn: AsyncServiceClient, ctx: MixedContext) -> Window:
    """Send ``ctx.plan`` at ``ctx.rate`` ops/s and check every answer.

    ``load.ok`` counts completed searches (plain and verified), so
    ``load.qps`` is the search rate; every op counts as attempted.
    """
    load = LoadResult(mode="open", requested=len(ctx.plan), rate_qps=ctx.rate)
    window = Window(load)
    gate = WriteGate()
    history = ctx.history

    async def search(index: int, due: float) -> None:
        sent = history.tick()
        got = await search_ids(conn, ctx.payloads[index])
        answered = history.tick()
        load.latency.record(time.perf_counter() - due)
        load.ok += 1
        if not history.check(ctx.candidates[index], got, sent, answered):
            window.wrong += 1

    async def verified(index: int, due: float) -> None:
        async with gate.verifying():
            sent = history.tick()
            payload = ctx.payloads[index]
            response, _stats, section = await conn.search_verified(payload)
            answered = history.tick()
            got = tuple(sorted(response.identifiers))
            try:
                ctx.verifier.verify(payload, got, section, state=ctx.state)
                legal = history.check(ctx.candidates[index], got, sent, answered)
            except IntegrityError:
                legal = False
        latency = time.perf_counter() - due
        load.latency.record(latency)
        window.verified.record(latency)
        load.ok += 1
        if not legal:
            window.wrong += 1

    async def upload(index: int, due: float) -> None:
        records = ctx.batches[index]
        identifiers = [record.identifier for record in records]
        async with gate.writing():
            history.stamp(history.upload_sent, identifiers)
            await conn.upload(UploadDataset(records=records))
            history.stamp(history.upload_acked, identifiers)
            ctx.state.note_upload(ctx.tag_keys, identifiers)
        window.upload.record(time.perf_counter() - due)

    async def delete(identifiers: tuple[int, ...], due: float) -> None:
        async with gate.writing():
            history.stamp(history.delete_sent, identifiers)
            await conn.delete(identifiers)
            history.stamp(history.delete_acked, identifiers)
            ctx.state.note_delete(ctx.tag_keys, identifiers)
        window.delete.record(time.perf_counter() - due)

    handlers = {
        "search": search,
        "verified": verified,
        "upload": upload,
        "delete": delete,
    }

    async def run(op, due: float) -> None:
        try:
            await handlers[op.kind](op.arg, due)
        except ReproError as exc:
            load.observe_failure(exc)

    started = time.perf_counter()
    cpu_started = time.process_time()
    tasks = []
    for position, op in enumerate(ctx.plan):
        due = started + position / ctx.rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(run(op, due)))
    await asyncio.gather(*tasks)
    load.elapsed_s = time.perf_counter() - started
    window.cpu_s = time.process_time() - cpu_started
    return window


async def answer_matches(
    port: int, payload: bytes, expected: tuple[int, ...], timeout_s: float
) -> None:
    """Search until the service at *port* answers *expected*.

    Raises:
        TimeoutError: If no correct answer arrives within *timeout_s*.
    """
    deadline = time.perf_counter() + timeout_s
    async with client(port) as conn:
        while True:
            try:
                if await search_ids(conn, payload) == expected:
                    return
            except ReproError:
                pass
            if time.perf_counter() > deadline:
                raise TimeoutError("no correct answer after restart")
            await asyncio.sleep(0.01)
