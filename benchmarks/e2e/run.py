"""End-to-end benchmark of the CRSE service: ``python3 benchmarks/e2e/run.py``.

Runs one or more workloads (see ``workloads.py`` and the README) against
``repro serve`` / ``repro coordinate`` subprocesses built from this
checkout's ``src`` tree, checks every answer, and prints every metric by
name and unit.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 98, "failed": 0, "metrics": {...}}

With ``--trace 0`` (the measured pass) the metrics are the end-to-end
ones; with ``--trace 1`` a separate traced pass reports the per-layer
ones.  ``--seconds S`` sets how long the measured pass measures: it runs
``S / ROUND_SECONDS`` rounds, each the same fixed work on any commit.
``--out FILE`` appends the full record (metrics, sample counts, per-round
values, host and commit) as one JSON line, which ``compare.py`` reads.

Exit status: 0 when every answer was correct, 1 on a wrong answer or a
failed run, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Working space for keys, data directories, logs and span files.
WORK = ROOT / ".bench_e2e"

if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"error: {SRC} holds no repro package; run from a checkout")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.cloud.codec import encode_ciphertext, encode_token  # noqa: E402
from repro.cloud.messages import UploadRecord  # noqa: E402
from repro.core.crse2 import CRSE2Scheme  # noqa: E402
from repro.core.provision import group_for_crse2  # noqa: E402
from repro.crypto.keystore import save_crse2_key  # noqa: E402
from repro.datasets.brightkite import checkin_to_point, generate_checkins  # noqa: E402
from repro.integrity import (  # noqa: E402
    IntegrityState,
    ResultVerifier,
    TagKeys,
    membership_tag,
    record_tag,
)
from repro.loadgen import LatencyRecorder  # noqa: E402

import layers  # noqa: E402
from drive import (  # noqa: E402
    History,
    MixedContext,
    answer_matches,
    client,
    closed_window,
    open_mixed,
    search_ids,
    upload_all,
)
from services import Deployment  # noqa: E402
from workloads import (  # noqa: E402
    DIGITS,
    ROUND_SECONDS,
    SETUP_BATCH,
    SPACE,
    SPECS,
    make_dataset,
)

#: ``run_seconds`` in BENCHMARK.json: the run length when none is given.
DEFAULT_SECONDS = 14

END_TO_END = {
    "qps": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "setup_s": "s",
    "restart_s": "s",
    "rss_mb": "MB",
}

PER_LAYER = {
    "core.gen_token_ms": "ms",
    "core.encrypt_ms_per_record": "ms",
    "core.subtoken_evals_per_record": "count",
    "core.scan_ms_per_record": "ms",
    "core.scan_us_per_subtoken_eval": "us",
    "crypto.pair_ms": "ms",
    "crypto.multi_pair_ms": "ms",
    "codec.encode_token_ms": "ms",
    "codec.decode_token_ms": "ms",
    "codec.decode_ciphertext_us": "us",
    "protocol.search_request_bytes": "bytes",
    "protocol.encode_search_us": "us",
    "protocol.decode_reply_us": "us",
    "server.health_rtt_ms": "ms",
    "server.search_rtt_ms": "ms",
    "server.upload_rtt_ms": "ms",
    "server.verified_rtt_ms": "ms",
    "server.handler_mean_ms": "ms",
    "server.front_handler_ms": "ms",
    "server.outside_handler_ms": "ms",
    "server.peak_in_flight": "count",
    "server.parent_rss_mb": "MB",
    "engine.search_ms": "ms",
    "engine.scan_ms": "ms",
    "engine.dispatch_ms": "ms",
    "engine.partition_skew": "ratio",
    "engine.load_ms_per_record": "ms",
    "engine.worker_rss_mb": "MB",
    "coordinator.overhead_ms": "ms",
    "coordinator.dirty_marks": "count",
    "coordinator.failovers": "count",
    "storage.append_ms_per_batch": "ms",
    "storage.replay_ms": "ms",
    "storage.log_bytes_per_payload_byte": "ratio",
    "integrity.proof_ms": "ms",
    "integrity.verify_ms": "ms",
    "integrity.checkpoint_ms": "ms",
    "client.connections_opened": "count",
    "loadgen.lag_p90_ms": "ms",
    "loadgen.cpu_frac": "ratio",
    "trace.unattributed_ms": "ms",
    "trace.overhead_ms": "ms",
}

#: Identifiers of the records the traced pass uploads (beyond any dataset).
PROBE_ID_BASE = 10**6


def rounds_for(seconds: float) -> int:
    """Rounds that measure about *seconds* of load."""
    return max(1, round(seconds / ROUND_SECONDS))


def reference_ms() -> float:
    """Time a fixed pure-Python loop, in ms: how fast the host runs now."""
    started = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return (time.perf_counter() - started) * 1e3


class CheckFailed(RuntimeError):
    """The system gave a wrong answer outside the measured window."""


class Owner:
    """The data owner: the key and seeded encryption and tokenization."""

    def __init__(self, spec, seed: int, workdir: Path):
        self.rng = random.Random(f"{spec.name}/{seed}/owner")
        # The group is the system's public set-up, not a workload input, so
        # it is one per workload: with a seeded group, the pairing field
        # prime (120-126 bits) and so the per-pairing cost varied by seed.
        group_rng = random.Random(f"{spec.name}/group")
        self.scheme = CRSE2Scheme(
            SPACE, group_for_crse2(SPACE, spec.backend, group_rng)
        )
        self.key = self.scheme.gen_key(self.rng)
        self.tag_keys = TagKeys.derive(self.scheme, self.key)
        self.key_path = workdir / "owner.key"
        self.key_path.write_bytes(save_crse2_key(self.scheme, self.key))

    def token(self, circle) -> bytes:
        """Tokenize and encode one query circle."""
        return encode_token(
            self.scheme, self.scheme.gen_token(self.key, circle, self.rng)
        )

    def tokens(self, circles) -> tuple[list[bytes], list[float], list[float]]:
        """Payloads for *circles*, with per-query gen and encode ms."""
        payloads, gen_ms, encode_ms = [], [], []
        for circle in circles:
            started = time.perf_counter()
            token = self.scheme.gen_token(self.key, circle, self.rng)
            generated = time.perf_counter()
            payloads.append(encode_token(self.scheme, token))
            gen_ms.append((generated - started) * 1e3)
            encode_ms.append((time.perf_counter() - generated) * 1e3)
        return payloads, gen_ms, encode_ms

    def encrypt(self, points: dict) -> list[UploadRecord]:
        """Encrypt and tag *points* (identifier → point) for upload."""
        records = []
        for identifier, point in points.items():
            blob = encode_ciphertext(
                self.scheme, self.scheme.encrypt(self.key, point, self.rng)
            )
            records.append(
                UploadRecord(
                    identifier=identifier,
                    payload=blob,
                    tag=record_tag(self.tag_keys, identifier, blob),
                    mtag=membership_tag(self.tag_keys, identifier),
                )
            )
        return records


class Run:
    """The seeded inputs of one workload run and the system serving them."""

    def __init__(self, spec, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.data = make_dataset(spec, seed)
        self.owner = Owner(spec, seed, workdir)
        self.payloads, self.gen_ms, self.encode_ms = self.owner.tokens(
            self.data.circles
        )
        self.expected = [self.data.matches(q) for q in range(spec.pool)]
        self.deployment: Deployment | None = None
        self.records: list[UploadRecord] = []
        self.encrypt_s = 0.0
        self.state = IntegrityState()
        self._batches: list[tuple] | None = None

    def set_up(self, index: int) -> float:
        """Replace the running deployment: encrypt, start the services,
        upload, and wait for a correct answer; return the seconds taken
        (stopping the previous deployment is not counted)."""
        self.close()
        started = time.perf_counter()
        self.records = self.owner.encrypt(self.data.points)
        self.encrypt_s = time.perf_counter() - started
        deployment = Deployment(
            self.spec, self.workdir / f"round{index}", self.owner.key_path
        )
        deployment.workdir.mkdir()
        try:
            port = deployment.start()
            asyncio.run(self._upload_and_check(port))
        except BaseException:
            deployment.stop()
            raise
        elapsed = time.perf_counter() - started
        self.deployment = deployment
        self.state = IntegrityState()
        self.state.note_upload(self.owner.tag_keys, self.data.points)
        return elapsed

    async def _upload_and_check(self, port: int) -> None:
        async with client(port) as conn:
            await upload_all(conn, self.records, SETUP_BATCH)
            if await search_ids(conn, self.payloads[0]) != self.expected[0]:
                raise CheckFailed("set-up: the first answer is wrong")

    def mixed_context(self) -> MixedContext:
        """Everything the open loop needs, encrypted before the window."""
        if self._batches is None:
            self._batches = [
                tuple(self.owner.encrypt(batch))
                for batch in self.data.upload_batches
            ]
        return MixedContext(
            plan=self.data.plan,
            rate=self.spec.rate,
            payloads=self.payloads,
            candidates=[
                self.data.matches(q, extra=True) for q in range(self.spec.pool)
            ],
            batches=self._batches,
            history=History(self.data.points),
            verifier=ResultVerifier(self.owner.tag_keys),
            tag_keys=self.owner.tag_keys,
            state=self.state,
        )

    async def load(self, observe: bool) -> dict:
        """Warm up, then measure one round's fixed work on one connection.

        With *observe* (the traced pass), also read the front end's
        ``stats`` around the window, the coordinator's ``cluster`` report
        after it, and how late the event loop ran during it.
        """
        spec = self.spec
        out: dict = {}
        async with client(self.deployment.front_port) as conn:
            for q in range(max(2, spec.concurrency)):
                q %= spec.pool
                if await search_ids(conn, self.payloads[q]) != self.expected[q]:
                    raise CheckFailed("warm-up: wrong answer")
            if observe:
                out["before"] = await conn.stats()
            out["lags"] = LatencyRecorder()
            async with layers.loop_lag(out["lags"], observe):
                if spec.open_loop:
                    window = await open_mixed(conn, self.mixed_context())
                else:
                    window = await closed_window(
                        conn, self.payloads, self.expected, spec.concurrency, spec.ops
                    )
            if observe:
                out["after"] = await conn.stats()
                if spec.coordinated:
                    out["cluster"] = await conn.cluster()
            out["connections"] = conn.connections_opened
        out["window"] = window
        return out

    def restart(self) -> float:
        """SIGTERM shard 0 and restart it on its data directory; return the
        seconds from the restart to its first correct answer."""
        shard = self.deployment.shards[0]
        payload = self.payloads[0]
        reference = asyncio.run(_answer(shard.port, payload))
        if not self.spec.coordinated and reference != self.expected[0]:
            raise CheckFailed("before restart: wrong answer")
        shard.stop()
        started = time.perf_counter()
        shard.spawn()
        shard.wait_ready()
        asyncio.run(answer_matches(shard.port, payload, reference, 60.0))
        return time.perf_counter() - started

    def close(self) -> None:
        """Stop every service process."""
        if self.deployment is not None:
            self.deployment.stop()


async def _answer(port: int, payload: bytes) -> tuple[int, ...]:
    async with client(port) as conn:
        return await search_ids(conn, payload)


def _pooled(recorders) -> LatencyRecorder:
    pooled = LatencyRecorder()
    for recorder in recorders:
        pooled.merge(recorder)
    return pooled


def _measured(run: Run, rounds: int) -> dict:
    spec = run.spec
    # Host speed drifts within seconds, so every metric is sampled in
    # every round: a fresh set-up, the round's fixed load, memory and a
    # shard restart.
    windows, per_round, refs = [], [], []
    for index in range(rounds):
        setup_s = run.set_up(index)
        window = asyncio.run(run.load(observe=False))["window"]
        rss = run.deployment.rss_mb()
        refs.append(reference_ms())
        restart_s = run.restart()
        windows.append(window)
        per_round.append(
            {
                "qps": window.load.qps,
                "p50_ms": window.load.latency.percentile_ms(0.50),
                "p90_ms": window.load.latency.percentile_ms(0.90),
                "setup_s": setup_s,
                "restart_s": restart_s,
                "rss_mb": rss,
            }
        )
    searches = _pooled(w.load.latency for w in windows)
    metrics = {
        "qps": sum(w.load.ok for w in windows) / sum(w.load.elapsed_s for w in windows),
        "p50_ms": searches.percentile_ms(0.50),
        "p90_ms": searches.percentile_ms(0.90),
        "setup_s": statistics.median(r["setup_s"] for r in per_round),
        "restart_s": statistics.median(r["restart_s"] for r in per_round),
        "rss_mb": statistics.median(r["rss_mb"] for r in per_round),
    }
    samples = {
        "qps": searches.count,
        "p50_ms": searches.count,
        "p90_ms": searches.count,
        "setup_s": rounds,
        "restart_s": rounds,
        "rss_mb": rounds,
    }
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    extras = {
        "error_rate": failed / max(1, attempted),
        "host_ref_ms": statistics.median(refs),
    }
    if searches.count >= 1000:
        extras["p99_ms"] = searches.percentile_ms(0.99)
    for name in ("verified", "upload", "delete"):
        recorder = _pooled(getattr(w, name) for w in windows)
        if recorder.count:
            extras[f"{name}_p50_ms"] = recorder.percentile_ms(0.50)
            samples[f"{name}_p50_ms"] = recorder.count
    record = _record(run, windows, metrics, END_TO_END, samples, extras)
    record["rounds"] = per_round
    return record


def _traced(run: Run, spans_path: Path) -> dict:
    spec = run.spec
    run.set_up(0)
    observed = asyncio.run(run.load(observe=True))
    window = observed["window"]
    deployment = run.deployment
    parent_mb, workers_mb = deployment.shards[0].rss()
    spans = layers.Spans()
    metrics = asyncio.run(
        layers.traced_probes(run.owner, run.data.circles, deployment.front_port, spans)
    )
    metrics.update(asyncio.run(layers.shard_probes(deployment, run.payloads)))
    probe_rng = random.Random(f"{spec.name}/{run.seed}/probe")
    batches = [
        run.owner.encrypt(
            {
                PROBE_ID_BASE + 10 * b + k: checkin_to_point(c, DIGITS)
                for k, c in enumerate(generate_checkins(10, probe_rng, digits=DIGITS))
            }
        )
        for b in range(3)
    ]
    metrics.update(
        asyncio.run(
            layers.write_probes(
                run.owner, deployment.front_port, run.payloads[0], run.state, batches
            )
        )
    )
    run.close()
    metrics.update(layers.replay_store(deployment.workdir / "shard0"))
    per_shard = spec.records // max(1, spec.partitions)
    metrics.update(
        layers.in_process(
            run.owner,
            spec,
            run.records[:per_shard],
            run.payloads,
            run.expected,
            run.workdir,
        )
    )
    cluster = observed.get("cluster", {})
    replicas = [r for p in cluster.get("partitions", []) for r in p["replicas"]]
    metrics.update(
        layers.stats_under_load(
            observed["before"],
            observed["after"],
            window.load.latency.mean_ms,
            spec.coordinated,
        )
    )
    metrics.update(
        {
            "core.gen_token_ms": statistics.median(run.gen_ms),
            "core.encrypt_ms_per_record": run.encrypt_s * 1e3 / spec.records,
            "codec.encode_token_ms": statistics.median(run.encode_ms),
            "server.parent_rss_mb": parent_mb,
            "engine.worker_rss_mb": workers_mb,
            "coordinator.dirty_marks": float(sum(r["stale"] for r in replicas)),
            "coordinator.failovers": float(sum(r["down"] for r in replicas)),
            "client.connections_opened": float(observed["connections"]),
            "loadgen.lag_p90_ms": observed["lags"].percentile_ms(0.90),
            "loadgen.cpu_frac": window.cpu_s / window.load.elapsed_s,
        }
    )
    spans.write(spans_path)
    extras = {
        "self_ms": spans.self_ms(),
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return _record(run, [window], metrics, PER_LAYER, {}, extras)


def _record(run: Run, windows, metrics, units, samples, extras) -> dict:
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    # Exception type names only: a message could quote request content.
    errors = [e.split(":", 1)[0] for w in windows for e in w.load.error_samples][:4]
    return {
        "workload": run.spec.name,
        "seed": run.seed,
        "correct": all(w.wrong == 0 for w in windows),
        "attempted": sum(w.attempted for w in windows),
        "failed": sum(w.failed for w in windows),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
        "samples": {name: samples.get(name) for name in units},
        "extras": extras,
        "errors": errors,
    }


def run_workload(spec, seed: int, rounds: int, trace: bool) -> dict:
    """Run one workload's measured pass of *rounds* rounds (or, with
    *trace*, its traced pass of one round).

    Returns the result record: ``correct``/``attempted``/``failed``,
    ``metrics`` (name → value and unit), per-metric sample counts, extras,
    and host provenance.

    Raises:
        CheckFailed: On a wrong answer outside the measured window.
    """
    workdir = WORK / f"{spec.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = None
    try:
        run = Run(spec, seed, workdir)
        if trace:
            spans_path = WORK / "spans" / f"{spec.name}-seed{seed}.jsonl"
            record = _traced(run, spans_path)
        else:
            record = _measured(run, rounds)
    finally:
        if run is not None:
            run.close()
        shutil.rmtree(workdir, ignore_errors=True)
    record["trace"] = int(trace)
    record["host"] = host_info()
    return record


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_info() -> dict:
    """Where and with what the run happened."""
    return {
        "commit": _git_commit(),
        "host_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def print_record(record: dict, out) -> None:
    print(
        f"== {record['workload']} seed={record['seed']} "
        f"rounds={len(record.get('rounds', [])) or 1} trace={record['trace']} "
        f"attempted={record['attempted']} failed={record['failed']} "
        f"correct={record['correct']}",
        file=out,
    )
    for name, metric in record["metrics"].items():
        count = record["samples"].get(name)
        print(
            f"  {name:36s} {metric['value']:14.4f} {metric['unit']:6s}"
            + (f" (n={count})" if count is not None else ""),
            file=out,
        )
    for name, value in record["extras"].items():
        if isinstance(value, float):
            count = record["samples"].get(name)
            print(
                f"  {name:36s} {value:14.4f}"
                + (f"        (n={count})" if count is not None else ""),
                file=out,
            )
    self_ms = record["extras"].get("self_ms")
    if self_ms:
        print(
            "  self time per traced query (ms): "
            + ", ".join(f"{k}={v:.3f}" for k, v in sorted(self_ms.items())),
            file=out,
        )
    if record["errors"]:
        print(f"  errors: {', '.join(record['errors'])}", file=out)


def summary(records: list[dict]) -> dict:
    """The result line: one workload's metrics, or all of them keyed
    ``workload/metric`` when several ran."""
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}/{name}": metric
            for r in records
            for name, metric in r["metrics"].items()
        }
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def build_parser() -> argparse.ArgumentParser:
    """The command line (see the module docstring)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        action="append",
        choices=sorted(SPECS),
        help="workload to run (repeatable; default: all, in order)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="seconds of load the measured pass measures, in rounds of "
        f"{ROUND_SECONDS} s of fixed work",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: the traced pass with per-layer metrics",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="append each workload's full record to this JSON-lines file",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the requested workloads; the last stdout line is the result."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    names = args.workload or list(SPECS)
    records = []
    for name in names:
        try:
            record = run_workload(
                SPECS[name], args.seed, rounds_for(args.seconds), bool(args.trace)
            )
        except Exception as exc:  # the run's boundary: report and fail
            print(f"error: {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        print_record(record, sys.stdout)
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            with open(args.out, "a", encoding="utf-8") as sink:
                sink.write(json.dumps(record, sort_keys=True) + "\n")
        records.append(record)
    result = summary(records)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
