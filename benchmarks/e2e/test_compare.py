"""Unit tests of ``compare.py`` on synthetic result records.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_compare.py -q``.
"""

from __future__ import annotations

import io

from compare import compare, pair_by_seed, verdict

SPEC = {
    "workloads": [{"name": "w1", "why": "-"}, {"name": "w2", "why": "-"}],
    "end_to_end": [
        {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [{"name": "core.scan_ms", "unit": "ms", "better": "lower"}],
}
SEEDS = range(1, 11)


def record(workload, seed, qps=100.0, p50=10.0, correct=True, failed=0, trace=0):
    """One result line as ``run.py --out`` writes it."""
    jitter = 1 + 0.001 * seed
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "qps": {"value": qps * jitter, "unit": "1/s"},
            "p50_ms": {"value": p50 * jitter, "unit": "ms"},
        },
        "extras": {},
    }


def base_set():
    return [record(w, seed) for w in ("w1", "w2") for seed in SEEDS]


def run_compare(base, change):
    out = io.StringIO()
    return compare(base, change, SPEC, out), out.getvalue()


def test_identical_sets_have_no_regression():
    regressions, text = run_compare(base_set(), base_set())
    assert regressions == 0, text
    assert "worse" not in text


def test_slower_beyond_the_bound_is_worse():
    change = [
        record(r["workload"], r["seed"], p50=12.0 if r["workload"] == "w2" else 10.0)
        for r in base_set()
    ]
    regressions, text = run_compare(base_set(), change)
    assert regressions == 1, text
    assert "worse" in text


def test_faster_in_every_pair_is_better():
    change = [record(r["workload"], r["seed"], qps=120.0) for r in base_set()]
    regressions, text = run_compare(base_set(), change)
    assert regressions == 0, text
    assert text.count("better") == 2


def test_missing_workload_is_a_regression():
    change = [r for r in base_set() if r["workload"] == "w1"]
    regressions, text = run_compare(base_set(), change)
    assert regressions == 10, text
    assert "no change run for seed 1" in text


def test_missing_seed_is_a_regression_not_a_file_order_pair():
    change = [r for r in base_set() if r["seed"] != 4]
    change.append(record("w1", 99))
    regressions, text = run_compare(base_set(), change)
    assert regressions == 2, text
    pairs, unpaired = pair_by_seed(
        [r for r in base_set() if r["workload"] == "w1"],
        [r for r in change if r["workload"] == "w1"],
    )
    assert [r["seed"] for r in unpaired] == [4]
    assert all(b["seed"] == c["seed"] for b, c in pairs)


def test_wrong_answer_is_a_regression_even_when_faster():
    change = [
        record(
            r["workload"],
            r["seed"],
            qps=200.0,
            correct=(r["workload"], r["seed"]) != ("w1", 3),
        )
        for r in base_set()
    ]
    regressions, text = run_compare(base_set(), change)
    assert regressions == 1, text
    assert "wrong answers" in text


def test_more_failures_is_a_regression():
    change = [
        record(r["workload"], r["seed"], failed=1 if r["seed"] == 5 else 0)
        for r in base_set()
    ]
    regressions, text = run_compare(base_set(), change)
    assert regressions == 2, text
    assert "failed/attempted rose" in text


def test_verdict_rules():
    # 9 of 10 wins and a gain beyond the base spread: better.
    pairs = [(10.0 + i * 0.01, 9.0) for i in range(9)] + [(10.0, 10.5)]
    assert verdict(pairs, "lower", 0.1) == "better"
    # Base spread wider than the bound: unresolved, unless the change
    # reads better than every base run.
    wide = [(v, v) for v in (5.0, 8.0, 10.0, 12.0, 15.0, 6.0, 9.0, 11.0, 14.0, 7.0)]
    assert verdict(wide, "lower", 0.1) == "unresolved"
    assert verdict([(b, 1.0) for b, _ in wide], "lower", 0.1) == "better"
    # Per-layer metrics have no bound: worse only by the mirrored pair rule.
    assert verdict([(10.0, 10.5)] * 10, "lower", None) == "worse"
    assert verdict([(10.0, 10.0)] * 10, "lower", None) == "same"
