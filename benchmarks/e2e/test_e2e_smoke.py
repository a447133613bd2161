"""Smoke test of the end-to-end benchmark: all four workloads at toy scale.

The shrunken specs go through the Python API (``run.run_workload``), so the
CLI carries no test-only flag.  Each workload runs its measured and its
traced pass once; the whole module takes well under a minute.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import base64
import dataclasses
import io
import json
import os
import subprocess
import sys

import pytest

import run
from services import descendants
from workloads import SPECS

SEED = 7
ROUNDS = 1
TOY = {
    "scan_fast": {"records": 40, "pool": 8, "ops": 16},
    "pairing_scan": {"records": 2, "pool": 4, "ops": 4},
    "coord_small": {"records": 8, "pool": 8, "ops": 32},
    "cluster_mixed": {
        "records": 40, "pool": 8, "ops": 10, "rate": 10.0, "mix": (2, 1, 1, 1),
    },
}


def toy(name: str):
    """The workload *name* shrunk to toy size."""
    return dataclasses.replace(SPECS[name], **TOY[name])


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def outputs() -> dict:
    """(workload, traced) → (record, printed text, result line, span text)."""
    out = {}
    for name in SPECS:
        for trace in (False, True):
            record = run.run_workload(toy(name), SEED, ROUNDS, trace)
            printed = io.StringIO()
            run.print_record(record, printed)
            spans = ""
            if trace:
                spans = (run.ROOT / record["extras"]["spans"]).read_text()
            line = json.dumps(run.summary([record]))
            out[name, trace] = (record, printed.getvalue(), line, spans)
    return out


def test_workloads_match_benchmark_json(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(SPECS)


def test_every_metric_is_emitted_with_its_unit(outputs, benchmark_json):
    for (name, trace), (record, printed, _, _) in outputs.items():
        section = benchmark_json["per_layer" if trace else "end_to_end"]
        wanted = {m["name"]: m["unit"] for m in section}
        got = {k: v["unit"] for k, v in record["metrics"].items()}
        assert got == wanted, (name, trace)
        for metric in wanted:
            assert metric in printed
        for metric in record["metrics"].values():
            assert isinstance(metric["value"], float), (name, metric)


def test_every_answer_is_correct(outputs):
    for key, (record, _, _, _) in outputs.items():
        assert record["correct"], key
        assert record["attempted"] >= 1, key
        assert record["failed"] == 0, (key, record["errors"])


def test_mixed_workload_ran_every_op_kind(outputs):
    extras = outputs["cluster_mixed", False][0]["extras"]
    for name in ("verified_p50_ms", "upload_p50_ms", "delete_p50_ms"):
        assert name in extras


def test_result_line_parses(outputs):
    for key, (record, _, line, _) in outputs.items():
        parsed = json.loads(line)
        assert set(parsed) == {"correct", "attempted", "failed", "metrics"}
        assert parsed["metrics"] == record["metrics"], key


def test_single_connection_and_no_processes_left(outputs):
    for name in SPECS:
        record = outputs[name, True][0]
        assert record["metrics"]["client.connections_opened"]["value"] == 1.0
    assert descendants(os.getpid()) == []


def test_inputs_are_seeded(tmp_path):
    spec = toy("cluster_mixed")
    first = run.Run(spec, SEED, tmp_path)
    second = run.Run(spec, SEED, tmp_path)
    assert first.data.points == second.data.points
    assert first.data.plan == second.data.plan
    assert first.payloads == second.payloads


def _secret_blobs(name: str, workdir) -> list[bytes]:
    """Token, ciphertext, tag and key bytes the toy run of *name* used."""
    workdir.mkdir()
    replica = run.Run(toy(name), SEED, workdir)
    records = replica.owner.encrypt(replica.data.points)[:3]
    key = json.loads(replica.owner.key_path.read_bytes())
    blobs = list(replica.payloads[:3])
    for record in records:
        blobs += [record.payload, record.tag, record.mtag]
    blobs += [
        replica.owner.tag_keys.record_key,
        replica.owner.tag_keys.membership_key,
    ]
    for field in ("h1", "h2", "u1", "u2"):
        blobs += [bytes.fromhex(element) for element in key["ssw"][field]]
    return blobs


def test_no_secret_bytes_in_any_output(outputs, tmp_path):
    for name in SPECS:
        texts = []
        for trace in (False, True):
            record, printed, line, spans = outputs[name, trace]
            texts += [printed, line, spans, json.dumps(record)]
        haystack = "\n".join(texts)
        for blob in _secret_blobs(name, tmp_path / name):
            for form in (
                blob.hex(),
                base64.b64encode(blob).decode(),
                blob.decode("latin-1"),
            ):
                assert form not in haystack, name


def test_static_analysis_stays_clean():
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    done = subprocess.run(
        [
            sys.executable, "-m", "repro.analysis.staticcheck",
            "src/repro", "benchmarks", "examples", "--flow", "--strict",
        ],
        cwd=run.ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
