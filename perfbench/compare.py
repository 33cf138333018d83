"""Compare two sets of benchmark results by the benchmark's own bounds.

Usage::

    python3 perfbench/compare.py BASE HEAD

``BASE`` and ``HEAD`` are run ledgers (``.perfbench_out/ledger.jsonl``,
one JSON row per run, as ``run.py`` appends them) or directories holding
them.  For every workload and end-to-end metric the helper prints each
side's median and quartiles (``statistics.quantiles(n=4)``) and a
verdict, with ``bound`` taken from ``BENCHMARK.json``:

* ``worse``: HEAD's median is worse than BASE's by more than the bound;
* ``better``: HEAD's median is better by more than the bound and HEAD
  wins at least nine tenths of the run pairs (paired by seed where both
  sides ran the same seeds, else in order);
* ``same``: the medians differ by no more than the bound and BASE's own
  spread (quartile distance over median) is within the bound;
* ``unresolved``: anything else — BASE's spread is wider than the bound,
  or the gain does not win nine tenths of the pairs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def read_rows(source: str) -> list[dict]:
    path = Path(source)
    files = sorted(path.rglob("*.jsonl")) if path.is_dir() else [path]
    rows = []
    for file in files:
        for line in file.read_text().splitlines():
            if line.strip():
                rows.append(json.loads(line))
    return [row for row in rows if not row.get("trace")]


def by_workload(rows: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for row in rows:
        out.setdefault(row["workload"], []).append(row)
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def pairs(base: list[dict], head: list[dict], name: str):
    base_by = {row["seed"]: row for row in base}
    head_by = {row["seed"]: row for row in head}
    common = sorted(set(base_by) & set(head_by))
    if common:
        return [(base_by[s]["metrics"][name]["value"],
                 head_by[s]["metrics"][name]["value"]) for s in common]
    return [(b["metrics"][name]["value"], h["metrics"][name]["value"])
            for b, h in zip(base, head)]


def verdict(spec: dict, base: list[float], head: list[float],
            paired: list[tuple[float, float]]) -> str:
    sign = 1.0 if spec["better"] == "lower" else -1.0
    b_med, b_q1, b_q3 = summary(base)
    h_med = summary(head)[0]
    if b_med == 0:
        return "unresolved"
    change = sign * (h_med - b_med) / abs(b_med)   # > 0 means worse
    bound = spec["bound"]
    if change > bound:
        return "worse"
    wins = sum(1 for b, h in paired if sign * (h - b) < 0)
    if change < -bound and paired and wins >= 0.9 * len(paired):
        return "better"
    if change >= -bound and (b_q3 - b_q1) / abs(b_med) <= bound:
        return "same"
    return "unresolved"


def compare(base_rows: list[dict], head_rows: list[dict],
            specs: list[dict]) -> list[str]:
    lines = []
    base_w, head_w = by_workload(base_rows), by_workload(head_rows)
    for workload in sorted(set(base_w) | set(head_w)):
        base, head = base_w.get(workload, []), head_w.get(workload, [])
        lines.append(f"== {workload}: {len(base)} base runs, "
                     f"{len(head)} head runs")
        if not base or not head:
            lines.append("   (missing on one side)")
            continue
        for spec in specs:
            name = spec["name"]
            b = [row["metrics"][name]["value"] for row in base]
            h = [row["metrics"][name]["value"] for row in head]
            bm, bq1, bq3 = summary(b)
            hm, hq1, hq3 = summary(h)
            lines.append(
                f"   {name:<18} {spec['unit']:>4}  base {bm:11.5g} "
                f"[{bq1:.5g}, {bq3:.5g}]  head {hm:11.5g} "
                f"[{hq1:.5g}, {hq3:.5g}]  "
                f"{verdict(spec, b, h, pairs(base, head, name))}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    specs = json.loads(BENCHMARK.read_text())["end_to_end"]
    for line in compare(read_rows(argv[0]), read_rows(argv[1]), specs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
