"""Compare two sets of end-to-end benchmark result files.

Usage::

    python3 benchmarks/e2e/compare.py --base base.jsonl --change change.jsonl

Each file holds the JSON lines ``run.py --out`` appends, one per workload
run.  For every (workload, metric) the table shows each set's median and
quartiles and a verdict, judged by the rules of the metric's
``BENCHMARK.json`` entry:

* ``better`` — the change wins at least 9 of every 10 seed-paired runs
  (ties count for neither) and the medians differ by more than the base
  set's own quartile spread;
* ``worse`` — the change's median is worse than the base median by more
  than the metric's bound (end-to-end metrics), or it loses 9 of 10 pairs
  by more than the base spread (per-layer metrics, which have no bound);
* ``unresolved`` — the base spread is wider than the bound, so the
  medians cannot show a regression (unless every change run beats every
  base run, which reads ``better``);
* ``same`` — none of the above.

Runs pair by seed.  Besides a ``worse`` end-to-end metric, each of these
counts as a regression: a (workload, seed) run of the base set with no
change run, a change run with ``correct`` false, and a change workload
whose failed/attempted is above the base's.  Exit status is 1 when there
is any regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_records(paths) -> list[dict]:
    """Every result record in *paths* (JSON lines)."""
    records = []
    for path in paths:
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if line.strip():
                records.append(json.loads(line))
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _fmt(stats: tuple[float, float, float]) -> str:
    q1, median, q3 = stats
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(pairs: list[tuple[float, float]], better: str, bound: float | None) -> str:
    """Judge one metric from seed-paired ``(base, change)`` values."""
    sign = 1.0 if better == "higher" else -1.0
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    q1, base_med, q3 = quartiles(base)
    spread = q3 - q1
    gain = sign * (quartiles(change)[1] - base_med)
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    if wins >= 0.9 * len(pairs) and gain > spread:
        return "better"
    if bound is None:
        if losses >= 0.9 * len(pairs) and -gain > spread:
            return "worse"
        return "same"
    scale = abs(base_med) or 1.0
    if spread / scale > bound:
        if min(sign * c for c in change) > max(sign * b for b in base):
            return "better"
        return "unresolved"
    if -gain / scale > bound:
        return "worse"
    return "same"


def pair_by_seed(base: list[dict], change: list[dict]):
    """Pair the *k*-th base run of each seed with the *k*-th change run of
    that seed; return the pairs and the base runs left without a partner."""
    by_seed: dict[int, list[dict]] = {}
    for record in change:
        by_seed.setdefault(record["seed"], []).append(record)
    pairs, unpaired = [], []
    for record in base:
        partners = by_seed.get(record["seed"])
        if partners:
            pairs.append((record, partners.pop(0)))
        else:
            unpaired.append(record)
    return pairs, unpaired


def _failure_rate(records: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / max(1, attempted)


def run_problems(base: list[dict], change: list[dict]) -> list[str]:
    """Why the change runs of one workload cannot stand against the base:
    missing runs, wrong answers, or more failed operations."""
    pairs, unpaired = pair_by_seed(base, change)
    problems = [f"no change run for seed {r['seed']}" for r in unpaired]
    problems += [
        f"seed {r['seed']}: wrong answers (correct is false)"
        for r in change
        if not r["correct"]
    ]
    if pairs:
        base_rate = _failure_rate([b for b, _ in pairs])
        change_rate = _failure_rate([c for _, c in pairs])
        if change_rate > base_rate:
            problems.append(
                f"failed/attempted rose from {base_rate:.4g} to {change_rate:.4g}"
            )
    return problems


def compare(base_records, change_records, spec: dict, out=sys.stdout) -> int:
    """Print the comparison table; return the number of regressions."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    order = [w["name"] for w in spec["workloads"]]
    regressions = 0
    keys = sorted(
        {(r["workload"], r["trace"]) for r in base_records},
        key=lambda key: (order.index(key[0]) if key[0] in order else len(order), key),
    )
    for workload, trace in keys:
        base = [r for r in base_records if (r["workload"], r["trace"]) == (workload, trace)]
        change = [
            r for r in change_records if (r["workload"], r["trace"]) == (workload, trace)
        ]
        pairs, _ = pair_by_seed(base, change)
        print(
            f"== {workload} ({'traced' if trace else 'measured'} pass, "
            f"{len(pairs)} paired runs of {len(base)} base runs)",
            file=out,
        )
        for problem in run_problems(base, change):
            print(f"  REGRESSION: {problem}", file=out)
            regressions += 1
        if not pairs:
            continue
        refs = [
            [r["extras"]["host_ref_ms"] for r in side if "host_ref_ms" in r["extras"]]
            for side in zip(*pairs)
        ]
        if all(refs):
            # A shared host can run minutes at a time at a different speed;
            # a gap here means the two sets did not see the same machine.
            print(
                f"  host reference loop: base {statistics.median(refs[0]):.2f} ms, "
                f"change {statistics.median(refs[1]):.2f} ms",
                file=out,
            )
        print(
            f"  {'metric':36s} {'base median [Q1, Q3]':>34s} "
            f"{'change median [Q1, Q3]':>34s}  verdict",
            file=out,
        )
        for name in better:
            series = [
                (b["metrics"][name]["value"], c["metrics"][name]["value"])
                for b, c in pairs
                if name in b["metrics"] and name in c["metrics"]
            ]
            if not series:
                continue
            result = verdict(series, better[name], bounds.get(name))
            if result == "worse" and name in bounds:
                regressions += 1
            base_q = _fmt(quartiles([b for b, _ in series]))
            change_q = _fmt(quartiles([c for _, c in series]))
            unit = base[0]["metrics"][name]["unit"]
            print(
                f"  {name:36s} {base_q:>34s} {change_q:>34s}  {result} ({unit})",
                file=out,
            )
    return regressions


def main(argv: list[str] | None = None) -> int:
    """Compare ``--base`` against ``--change`` result files."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True, type=Path)
    parser.add_argument("--change", nargs="+", required=True, type=Path)
    parser.add_argument(
        "--benchmark", type=Path, default=ROOT / "BENCHMARK.json",
        help="the metric definitions and bounds",
    )
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text(encoding="utf-8"))
    regressions = compare(load_records(args.base), load_records(args.change), spec)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
