"""The traced pass: per-layer metrics, timed from the benchmark's own code.

Nothing here runs during the measured pass.  Spans wrap calls into each
``repro`` module's public functions; steps that happen inside a server are
taken from an in-process replay of the same calls (token decode, request
encoding, reply decoding) and from the reply's own ``stats`` (scan time).
Spans are ``{trace_id, name, parent, start, end}`` records kept in memory
and written as JSON lines at exit.  A layer's self time is its span's
duration minus what its child spans cover; ``client.search``'s self time
is the part of the round trip no span explains (wire, framing, queueing,
dispatch): ``trace.unattributed_ms``.  ``trace.overhead_ms`` is what
tracing adds to a whole query: a traced query (spans and in-process
replay included) against the same query untraced, the two alternating.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import statistics
import time
from pathlib import Path

from repro.cloud.codec import decode_ciphertext, decode_token, encode_token
from repro.cloud.messages import SearchRequest, UploadDataset
from repro.integrity import IntegrityState, ResultVerifier, ShardIntegrity
from repro.loadgen import LatencyRecorder
from repro.service import SearchEngine, protocol
from repro.service.schemeio import scheme_header
from repro.storage import RecordStore

from drive import client

#: Unloaded probe queries per traced pass.
PROBES = 5
#: How often the event-loop lag timer is due, in seconds.
LAG_PERIOD_S = 0.005


def _ms(started: float) -> float:
    return (time.perf_counter() - started) * 1e3


def timed_ms(func, *args, repeat: int = 1) -> float:
    """Median wall time of ``func(*args)`` over *repeat* calls, in ms."""
    samples = []
    for _ in range(repeat):
        started = time.perf_counter()
        func(*args)
        samples.append(_ms(started))
    return statistics.median(samples)


@contextlib.asynccontextmanager
async def loop_lag(lags: LatencyRecorder, enabled: bool):
    """While the body runs (and *enabled*), record in *lags* how late a
    timer due every ``LAG_PERIOD_S`` fires: how late any scheduled send
    on this event loop would run."""

    async def tick() -> None:
        while True:
            due = time.perf_counter() + LAG_PERIOD_S
            await asyncio.sleep(LAG_PERIOD_S)
            lags.record(max(0.0, time.perf_counter() - due))

    if not enabled:
        yield
        return
    task = asyncio.ensure_future(tick())
    try:
        yield
    finally:
        task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await task


class Spans:
    """In-memory span records, written out at the end of the run."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def add(self, trace_id: int, name: str, parent, start: float, end: float) -> None:
        """Record one span (times are ``perf_counter`` seconds)."""
        self.records.append(
            {
                "trace_id": trace_id,
                "name": name,
                "parent": parent,
                "start": start,
                "end": end,
            }
        )

    @contextlib.contextmanager
    def span(self, trace_id: int, name: str, parent=None):
        """Record the duration of the ``with`` body as one span."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(trace_id, name, parent, start, time.perf_counter())

    def self_ms(self) -> dict[str, float]:
        """Mean self time per trace of each layer (the name's prefix)."""
        covered: dict[tuple[int, str], float] = {}
        for record in self.records:
            if record["parent"] is not None:
                key = (record["trace_id"], record["parent"])
                covered[key] = covered.get(key, 0.0) + (
                    record["end"] - record["start"]
                )
        totals: dict[str, float] = {}
        traces = {record["trace_id"] for record in self.records}
        for record in self.records:
            own = record["end"] - record["start"] - covered.get(
                (record["trace_id"], record["name"]), 0.0
            )
            layer = record["name"].split(".")[0]
            totals[layer] = totals.get(layer, 0.0) + own * 1e3
        return {layer: ms / max(1, len(traces)) for layer, ms in totals.items()}

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as sink:
            for record in self.records:
                sink.write(json.dumps(record, sort_keys=True) + "\n")


async def traced_probes(owner, circles, port: int, spans: Spans) -> dict:
    """Unloaded queries through the front end, untraced and traced in turn.

    Each probe circle is queried twice, as a whole query (token generation,
    encoding and the round trip): once untraced, then once with spans and
    the in-process replay of the server-side steps.  Returns the tracing
    overhead, the unattributed remainder, and the sub-tokens evaluated per
    record.
    """
    scheme = owner.scheme
    untraced, traced, unattributed = [], [], []
    evaluations = scanned = 0
    async with client(port) as conn:
        await conn.search(owner.token(circles[0]))
        for trace_id, circle in enumerate(circles[:PROBES], start=1):
            started = time.perf_counter()
            await conn.search(owner.token(circle))
            untraced.append(_ms(started))

            started = time.perf_counter()
            with spans.span(trace_id, "query"):
                with spans.span(trace_id, "core.gen_token", "query"):
                    token = scheme.gen_token(owner.key, circle, owner.rng)
                with spans.span(trace_id, "codec.encode_token", "query"):
                    payload = encode_token(scheme, token)
                rpc_start = time.perf_counter()
                response, stats = await conn.search(payload)
                rpc_end = time.perf_counter()
                spans.add(trace_id, "client.search", "query", rpc_start, rpc_end)
            # Steps inside the round trip, replayed in-process (or, for the
            # scan, taken from the reply), laid end to end from its start.
            body = protocol.encode_ok(
                1, {"identifiers": list(response.identifiers), "stats": stats}
            )
            steps = [
                (
                    "protocol.encode_search",
                    timed_ms(
                        protocol.encode_request,
                        "search",
                        1,
                        protocol.search_fields(SearchRequest(payload=payload)),
                    ),
                ),
                ("server.decode_token", timed_ms(decode_token, scheme, payload)),
                ("engine.scan", float(stats.get("elapsed_ms", 0.0))),
                ("protocol.decode_reply", timed_ms(protocol.decode_reply, body)),
            ]
            at = rpc_start
            for name, ms in steps:
                spans.add(trace_id, name, "client.search", at, at + ms / 1e3)
                at += ms / 1e3
            traced.append(_ms(started))
            unattributed.append((rpc_end - rpc_start) * 1e3 - sum(ms for _, ms in steps))
            evaluations += int(stats.get("sub_token_evaluations", 0))
            scanned += int(stats.get("records_scanned", 0))
    request = protocol.encode_request(
        "search", 1, protocol.search_fields(SearchRequest(payload=payload))
    )
    return {
        "trace.overhead_ms": statistics.median(traced) - statistics.median(untraced),
        "trace.unattributed_ms": statistics.median(unattributed),
        "core.subtoken_evals_per_record": evaluations / max(1, scanned),
        "protocol.search_request_bytes": float(len(request)),
        "protocol.encode_search_us": 1e3 * timed_ms(
            _repeat,
            protocol.encode_request,
            "search",
            1,
            protocol.search_fields(SearchRequest(payload=payload)),
        ) / _REPS,
        "protocol.decode_reply_us": 1e3 * timed_ms(
            _repeat, protocol.decode_reply, body
        ) / _REPS,
    }


#: Calls per timing of a microsecond-scale function.
_REPS = 200


def _repeat(func, *args) -> None:
    for _ in range(_REPS):
        func(*args)


async def shard_probes(deployment, payloads: list[bytes]) -> dict:
    """Unloaded round trips straight to the shards, and to the front end.

    The coordinator's overhead is the front end's round trip minus the
    slowest direct-shard round trip for the same token, over one replica
    per partition (the replicas a coordinator search actually uses).
    Where no coordinator runs, the front end is shard 0 itself, so the
    difference is the probe's own noise floor.
    """
    spec = deployment.spec
    first = [index * spec.replication for index in range(max(1, spec.partitions))]
    conns = [client(deployment.shard_port(index)) for index in first]
    front = client(deployment.front_port)
    health, direct, overhead = [], [], []
    try:
        for _ in range(PROBES):
            started = time.perf_counter()
            await conns[0].health()
            health.append(_ms(started))
        for payload in payloads[:PROBES]:
            rtts = []
            for conn in conns:
                started = time.perf_counter()
                await conn.search(payload)
                rtts.append(_ms(started))
            direct.append(rtts[0])
            started = time.perf_counter()
            await front.search(payload)
            overhead.append(_ms(started) - max(rtts))
    finally:
        for conn in conns:
            await conn.close()
        await front.close()
    return {
        "server.health_rtt_ms": statistics.median(health),
        "server.search_rtt_ms": statistics.median(direct),
        "coordinator.overhead_ms": statistics.median(overhead),
    }


async def write_probes(owner, port: int, payload: bytes, state, batches) -> dict:
    """Unloaded uploads of *batches* and verified searches via the front end.

    Every verified search must pass the verifier against *state*, which
    the uploads here keep exact.
    """
    verifier = ResultVerifier(owner.tag_keys)
    uploads, verified = [], []
    async with client(port) as conn:
        for records in batches:
            started = time.perf_counter()
            await conn.upload(UploadDataset(records=tuple(records)))
            uploads.append(_ms(started))
            state.note_upload(owner.tag_keys, (r.identifier for r in records))
        for _ in range(len(batches)):
            started = time.perf_counter()
            response, _stats, section = await conn.search_verified(payload)
            verifier.verify(payload, response.identifiers, section, state=state)
            verified.append(_ms(started))
    return {
        "server.upload_rtt_ms": statistics.median(uploads),
        "server.verified_rtt_ms": statistics.median(verified),
    }


def in_process(owner, spec, records, payloads, matches, workdir: Path) -> dict:
    """Per-layer costs measured by calling the library in this process.

    *records* are the shard-sized slice of encrypted, tagged records;
    *matches* gives each probe payload's expected identifiers.
    """
    scheme = owner.scheme
    out: dict[str, float] = {}
    probe = payloads[:PROBES]

    out["codec.decode_token_ms"] = statistics.median(
        timed_ms(decode_token, scheme, payload) for payload in probe
    )
    sample = records[: 64 if spec.backend == "fast" else 8]
    started = time.perf_counter()
    decoded = [decode_ciphertext(scheme, record.payload) for record in sample]
    out["codec.decode_ciphertext_us"] = _ms(started) * 1e3 / len(sample)

    scanned = evaluations = 0
    started = time.perf_counter()
    for payload in probe[: 3 if spec.backend == "fast" else 1]:
        token = decode_token(scheme, payload)
        for ciphertext in decoded:
            _, evaluated = scheme.matches_with_stats(token, ciphertext)
            evaluations += evaluated
            scanned += 1
    scan_ms = _ms(started)
    out["core.scan_ms_per_record"] = scan_ms / scanned
    out["core.scan_us_per_subtoken_eval"] = scan_ms * 1e3 / evaluations

    group = scheme.group
    ciphertext = decoded[0].ssw
    sub = decode_token(scheme, probe[0]).sub_tokens[0]
    out["crypto.pair_ms"] = timed_ms(group.pair, ciphertext.c, sub.k, repeat=5)
    pairs = [
        (ciphertext.c, sub.k),
        (ciphertext.c0, sub.k0),
        *zip(ciphertext.c1, sub.k1),
        *zip(ciphertext.c2, sub.k2),
    ]
    out["crypto.multi_pair_ms"] = timed_ms(group.multi_pair, pairs, repeat=3)

    out.update(_engine(scheme, spec, records, probe))
    shard = ShardIntegrity()
    for record in records:
        shard.add(record.identifier, record.payload, record.tag, record.mtag)
    out.update(_integrity(owner, shard, records, probe, matches))
    out.update(_storage(scheme, records, shard.checkpoint(), workdir))
    return out


def _engine(scheme, spec, records, probe) -> dict:
    rows = [(record.identifier, record.payload) for record in records]
    with SearchEngine(scheme, workers=spec.workers) as engine:
        engine.warm_up()
        started = time.perf_counter()
        engine.load(rows)
        load_ms = _ms(started)
        engine.search(probe[0])
        search, scan, skew = [], [], []
        for payload in probe[: 3 if spec.backend == "fast" else 2]:
            started = time.perf_counter()
            result = engine.search(payload)
            search.append(_ms(started))
            partitions = result.stats.partitions
            scan.append(max(partitions))
            skew.append(max(partitions) / statistics.mean(partitions))
    return {
        "engine.load_ms_per_record": load_ms / len(rows),
        "engine.search_ms": statistics.median(search),
        "engine.scan_ms": statistics.median(scan),
        "engine.dispatch_ms": statistics.median(search) - statistics.median(scan),
        "engine.partition_skew": statistics.median(skew),
    }


def _integrity(owner, shard, records, probe, matches) -> dict:
    state = IntegrityState()
    state.note_upload(owner.tag_keys, (record.identifier for record in records))
    verifier = ResultVerifier(owner.tag_keys)
    held = {record.identifier for record in records}
    proof_ms, verify_ms = [], []
    for payload, expected in zip(probe, matches):
        identifiers = [i for i in expected if i in held]
        started = time.perf_counter()
        section = {
            "matches": shard.matches_section(identifiers),
            "shards": [shard.proof_for(identifiers, payload)],
        }
        proof_ms.append(_ms(started))
        started = time.perf_counter()
        verifier.verify(payload, identifiers, section, state=state)
        verify_ms.append(_ms(started))
    return {
        "integrity.proof_ms": statistics.median(proof_ms),
        "integrity.verify_ms": statistics.median(verify_ms),
    }


def _storage(scheme, records, checkpoint: dict, workdir: Path) -> dict:
    rows = [
        (r.identifier, r.payload, r.content, r.tag, r.mtag) for r in records
    ]
    batches = [rows[i:i + 10] for i in range(0, min(len(rows), 50), 10)]
    with RecordStore.create(workdir / "layer-store", scheme_header(scheme)) as store:
        append = [timed_ms(store.append, batch) for batch in batches]
        ckpt = timed_ms(store.checkpoint_integrity, checkpoint, repeat=5)
    return {
        "storage.append_ms_per_batch": statistics.median(append),
        "integrity.checkpoint_ms": ckpt,
    }


def replay_store(directory: Path) -> dict:
    """Re-open a stopped shard's store and read every live record back."""
    started = time.perf_counter()
    with RecordStore.open(directory) as store:
        rows = list(store.scan_tagged())
        log_bytes = store.snapshot().log_bytes
    replay_ms = _ms(started)
    payload_bytes = sum(len(row[1]) for row in rows)
    return {
        "storage.replay_ms": replay_ms,
        "storage.log_bytes_per_payload_byte": log_bytes / max(1, payload_bytes),
    }


def stats_under_load(
    before: dict, after: dict, client_mean_ms: float, coordinated: bool
) -> dict:
    """Handler-side means from ``stats`` snapshots taken around the load.

    The coordinator's fan-out overhead is ``server.front_handler_ms`` −
    ``server.handler_mean_ms``; on a direct shard the two are one server.
    """

    def searched(snapshot: dict) -> tuple[float, int]:
        verb = snapshot.get("verbs", {}).get("search", {})
        requests = verb.get("requests", 0)
        return requests * verb.get("mean_ms", 0.0), requests

    def window(old: dict, new: dict) -> tuple[float, int]:
        (old_ms, old_n), (new_ms, new_n) = searched(old), searched(new)
        return new_ms - old_ms, new_n - old_n

    front_ms, front_n = window(before, after)
    front_mean = front_ms / max(1, front_n)
    if coordinated:
        old_shards = {r["addr"]: r.get("stats", {}) for r in before.get("shards", [])}
        shard_ms = shard_n = 0
        for report in after.get("shards", []):
            ms, n = window(old_shards.get(report["addr"], {}), report.get("stats", {}))
            shard_ms += ms
            shard_n += n
        shard_mean = shard_ms / max(1, shard_n)
    else:
        shard_mean = front_mean
    return {
        "server.handler_mean_ms": shard_mean,
        "server.front_handler_ms": front_mean,
        "server.outside_handler_ms": client_mean_ms - front_mean,
        "server.peak_in_flight": float(after.get("queue", {}).get("peak_in_flight", 0)),
    }
