"""Alternating before/after runs of the benchmark, for a claimed change.

    python3 scripts/bench_pairs.py --base REV --workload W --pairs N \\
        --seconds S --label L [--seed K]

Run from the root of a checkout.  REV is unpacked with ``git archive``
into a temporary directory, and ``bench/run.py --trace 0`` runs N times
there (the parent) and N times in the working tree (the change), one run
at a time, alternating which side of a pair runs first.  The final JSON
line of every run is saved, in run order, to
``BENCH_<L>_<W>_parent.json`` and ``BENCH_<L>_<W>_change.json`` at the
root of the working tree.  For each end-to-end metric the script prints
both sides' median and quartiles, and in how many pairs the change read
better, by the direction ``BENCHMARK.json`` gives.  It also reads the
``digest <name> <hex>`` lines of every run, and names each output digest
that is not the same in all runs of both sides.  It exits 1 when such a
digest exists or a run was not correct, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGEST_LINE = re.compile(r"\s*digest (\S+)\s+([0-9a-f]+)(\s|$)")


def digests(stdout: str) -> dict[str, str]:
    """Name to value of the ``digest <name> <hex>`` lines of a run's output."""
    return {m[1]: m[2] for m in map(DIGEST_LINE.match, stdout.splitlines()) if m}


def differing(parent: list[dict], change: list[dict]) -> list[str]:
    """Names of the digests not equal in every run of both sides, a
    digest missing from some run included."""
    runs = parent + change
    names = sorted(set().union(*runs))
    return [n for n in names if len({r.get(n) for r in runs}) != 1]


def unpack(rev: str, into: str) -> None:
    """Extract git revision ``rev`` of the checkout into ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def run_bench(tree: Path, workload: str, seed: int,
              seconds: int) -> tuple[dict, dict[str, str]]:
    """One ``bench/run.py`` run in ``tree``: its final JSON line, and its
    output digests."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py failed in {tree} (exit {proc.returncode}):\n"
                           f"{proc.stderr.strip()}")
    return json.loads(lines[-1]), digests(proc.stdout)


def summarize(parent: list[dict], change: list[dict],
              better: dict[str, str]) -> dict[str, dict]:
    """Per metric: each side's (first quartile, median, third quartile)
    and the number of pairs in which the change read better ("lower" or
    "higher" per ``better``; ties count for neither side)."""
    out: dict[str, dict] = {}
    for name in parent[0]["metrics"]:
        sides = {}
        for side, runs in (("parent", parent), ("change", change)):
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                q1 = q3 = values[0]
            else:
                q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
            sides[side] = (q1, statistics.median(values), q3)
        sign = -1 if better[name] == "lower" else 1
        wins = sum(sign * (c["metrics"][name]["value"] - p["metrics"][name]["value"]) > 0
                   for p, c in zip(parent, change))
        out[name] = {**sides, "wins": wins, "pairs": min(len(parent), len(change)),
                     "unit": parent[0]["metrics"][name]["unit"]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision of the parent side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    outputs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        unpack(args.base, tmp)
        trees = {"parent": Path(tmp), "change": ROOT}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result, digest = run_bench(trees[side], args.workload, args.seed,
                                           args.seconds)
                runs[side].append(result)
                outputs[side].append(digest)
                print(f"pair {i + 1} {side}: correct {result['correct']}, "
                      f"failed {result['failed']} of {result['attempted']}, "
                      + ", ".join(f"{k} {v['value']:.6g}"
                                  for k, v in result["metrics"].items()), flush=True)
    for side, results in runs.items():
        path = ROOT / f"BENCH_{args.label}_{args.workload}_{side}.json"
        path.write_text(json.dumps(results) + "\n")
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds} s runs: median (first quartile–third quartile)")
    for name, s in summarize(runs["parent"], runs["change"], better).items():
        (pq1, pm, pq3), (cq1, cm, cq3) = s["parent"], s["change"]
        print(f"  {name:13s} parent {pm:.6g} ({pq1:.6g}–{pq3:.6g}) -> change {cm:.6g} "
              f"({cq1:.6g}–{cq3:.6g}) {s['unit']}; change better in "
              f"{s['wins']} of {s['pairs']} pairs")
    bad = differing(outputs["parent"], outputs["change"])
    print("output digests differ: " + ", ".join(bad) if bad
          else f"output digests: {len(outputs['parent'][0])} the same in every run")
    correct = all(r["correct"] for side in runs.values() for r in side)
    return 0 if correct and not bad else 1


if __name__ == "__main__":
    sys.exit(main())
