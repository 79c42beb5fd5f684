"""The tetracolor benchmark.

    python3 bench/run.py --workload gen|sweep|tait --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition runs in a fresh
interpreter (see rep.py), one at a time; a run repeats its workload with
the same seed at least MIN_REPS times, and then as long as another
repetition still ends within S seconds.

With --trace 0 the run prints the end-to-end metrics, each the median
over the run's repetitions: setup_s (process spawn to the first timed
call, over at least SETUP_SAMPLES spawns), wall_s (the timed part),
work_per_s (units of work per second of wall_s) and peak_rss_mib.  With
--trace 1 it makes one untraced repetition, the reference for the
tracing slowdown, and two traced ones, and prints the per-layer metrics: calls and self time of the
public functions of each layer, a few ratios and counts, and the tracing
slowdown.  Spans and the full per-layer table go to .bench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Correct means every check of
every repetition passed and every repetition produced the same output
digests (and, traced, the same call counts).
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
MIN_REPS = 3
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170          # a run must end within 180 s

LAYER_FUNCS = (
    "harness.canonical_form", "harness.insert_edge_across_face",
    "harness.is_three_connected", "harness.emit_report",
    "planar_map.RotationMap", "planar_map.parse_map", "planar_map.serialize_map",
    "planar_map.validate", "planar_map.RotationMap.mirrored",
    "planar_map.delete_edge_suppress", "planar_map.contract_face",
    "kempe.run_procedure", "kempe.pattern_at", "kempe.classify_topology",
    "kempe.cycle_through", "kempe.find_chain", "kempe.invert_chain",
    "kempe.expand_vertex", "kempe.replay_inversions",
    "coloring.find_tait_coloring", "coloring.find_face_4coloring",
    "coloring.face4_to_edge3", "coloring.edge3_to_face4", "coloring.verify_coloring",
    "dscc.split_subgraphs", "dscc.trail_decompose", "dscc.decompose",
)
CLAIMS = ("C1", "C2", "C3", "C4", "C5", "C6")
ANOMALIES = ("topology-one-recurrence", "budget-exhausted", "unclassified-topology",
             "expand-failure", "chain-inversion-ineffective", "chorded-pentagon",
             "tait-coloring-unavailable", "pattern-not-allowed")
# the functions each workload must call; a traced run that sees zero calls
# of one of them has lost a timer
REQUIRED_CALLS = {
    "gen": ("harness.canonical_form", "harness.insert_edge_across_face",
            "planar_map.RotationMap", "planar_map.parse_map", "planar_map.serialize_map",
            "planar_map.validate", "planar_map.RotationMap.mirrored"),
    "sweep": ("harness.canonical_form", "harness.is_three_connected",
              "harness.emit_report", "planar_map.RotationMap", "planar_map.parse_map",
              "planar_map.serialize_map", "planar_map.validate",
              "planar_map.RotationMap.mirrored", "planar_map.delete_edge_suppress",
              "planar_map.contract_face", "kempe.run_procedure", "kempe.pattern_at",
              "kempe.classify_topology", "kempe.cycle_through", "kempe.find_chain",
              "kempe.invert_chain", "kempe.expand_vertex", "kempe.replay_inversions",
              "coloring.find_tait_coloring", "coloring.verify_coloring",
              "dscc.split_subgraphs", "dscc.trail_decompose",
              *(f"harness.check_claim.{c}" for c in CLAIMS)),
    "tait": ("coloring.find_tait_coloring", "coloring.find_face_4coloring",
             "coloring.face4_to_edge3", "coloring.edge3_to_face4",
             "dscc.split_subgraphs", "dscc.trail_decompose", "dscc.decompose"),
}


class RepFailed(RuntimeError):
    pass


def end_to_end_units() -> dict[str, str]:
    return {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mib": "MiB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for f in LAYER_FUNCS:
        units[f"{f}.calls"] = "count"
        units[f"{f}.self_s"] = "s"
    for c in CLAIMS:
        units[f"harness.check_claim.{c}.self_s"] = "s"
    units["harness.dedup.kept_per_child"] = "ratio"
    units["harness.memo.runs_per_instance"] = "ratio"
    for a in ANOMALIES:
        units[f"kempe.anomaly.{a}"] = "count"
    units["coloring.find_tait_coloring.over_budget"] = "count"
    units["tait.map_p50_ms"] = "ms"
    units[f"tait.map_p{wl.TAIT_TAIL}_ms"] = "ms"
    units["trace.slowdown"] = "ratio"
    return units


def spawn(workload: str, seed: int, mode: str, deadline: float,
          spans: Path | None = None) -> dict:
    """Run one repetition in a fresh interpreter; its record, with setup_s."""
    cmd = [sys.executable, str(HERE / "rep.py"), str(ROOT), workload, str(seed), mode]
    if spans:
        cmd.append(str(spans))
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - t_spawn, 1))
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{workload} {mode} repetition passed the {RUN_LIMIT_S} s limit")
    if proc.returncode != 0:
        raise RepFailed(f"{workload} {mode} repetition exited {proc.returncode}:\n"
                        + proc.stderr[-2000:])
    record = json.loads(proc.stdout.splitlines()[-1])
    record["setup_s"] = record["t_first"] - t_spawn
    return record


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def agree(records: list[dict]) -> tuple[bool, int]:
    """Whether every repetition passed its checks with the first one's
    digests; and the operations failed, counting every operation of a
    repetition whose digests differ."""
    ok, failed = True, 0
    for r in records:
        same = r["digests"] == records[0]["digests"]
        ok = ok and same and r["failed"] == 0 and all(r["checks"].values())
        failed += r["failed"] if same else r["attempted"]
    return ok, failed


def print_checks(records: list[dict]) -> None:
    first = records[0]
    for name in first["checks"]:
        every = all(r["checks"].get(name) for r in records)
        print(f"  check {name:32s} {'pass' if every else 'FAIL'}")
    for name, digest in first["digests"].items():
        same = all(r["digests"].get(name) == digest for r in records)
        print(f"  digest {name:31s} {digest[:16]} {'same in every repetition' if same else 'DIFFERS'}")
    for name, value in first.get("extra", {}).items():
        print(f"  {name:38s} {value}")


def timed_run(args, deadline: float) -> dict:
    start = time.monotonic()
    reps, took = [], []
    # another repetition only if one of median length still ends in time
    while (len(reps) < MIN_REPS
           or time.monotonic() - start + statistics.median(took) <= args.seconds):
        t = time.monotonic()
        reps.append(spawn(args.workload, args.seed, "timed", deadline))
        took.append(time.monotonic() - t)
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args.workload, args.seed, "setup", deadline)["setup_s"])
    samples = {"setup_s": setups,
               "wall_s": [r["wall_s"] for r in reps],
               "work_per_s": [r["units"] / r["wall_s"] for r in reps],
               "peak_rss_mib": [r["rss_mib"] for r in reps]}
    units = end_to_end_units()
    print(f"workload {args.workload}, seed {args.seed}: {len(reps)} timed repetitions, "
          f"{len(setups)} set-ups, one fresh interpreter each")
    metrics = {}
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": units[name]}
        print(f"  {name:14s} {med:12.6g} {units[name]:5s} median of {len(values)}; "
              f"quartiles {q1:.6g} .. {q3:.6g}; spread {(q3 - q1) / med:.3f}")
    correct, failed = agree(reps)
    attempted = sum(r["attempted"] for r in reps)
    print(f"  failed_share   {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print_checks(reps)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced_run(args, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    plain = spawn(args.workload, args.seed, "timed", deadline)
    traced = [spawn(args.workload, args.seed, "traced", deadline,
                    OUT / f"spans-{args.workload}-{k}.tsv.gz") for k in (1, 2)]
    records = [plain, *traced]
    correct, failed = agree(records)
    layers = [r["layers"] for r in traced]
    calls_agree = ({n: s["calls"] for n, s in layers[0].items()}
                   == {n: s["calls"] for n, s in layers[1].items()})
    missing = [n for n in REQUIRED_CALLS[args.workload] if n not in layers[0]]
    correct = correct and calls_agree and not missing

    def calls(name):
        return layers[0].get(name, {}).get("calls", 0)

    def self_s(name):
        return statistics.median(lay.get(name, {}).get("self_s", 0.0) for lay in layers)

    values = {}
    for f in LAYER_FUNCS:
        values[f"{f}.calls"] = calls(f)
        values[f"{f}.self_s"] = self_s(f)
    for c in CLAIMS:
        values[f"harness.check_claim.{c}.self_s"] = self_s(f"harness.check_claim.{c}")
    children = calls("harness.insert_edge_across_face")
    kept = wl.GEN_UNITS - 1                     # every level but the seed map's
    values["harness.dedup.kept_per_child"] = kept / children if children else 0.0
    extra = plain.get("extra", {})
    reductions = plain["attempted"] - extra.get("maps", 0) if args.workload == "sweep" else 0
    values["harness.memo.runs_per_instance"] = (calls("kempe.run_procedure") / reductions
                                                if reductions else 0.0)
    for a in ANOMALIES:
        values[f"kempe.anomaly.{a}"] = extra.get("anomalies", {}).get(a, 0)
    values["coloring.find_tait_coloring.over_budget"] = extra.get("tait_over_budget", 0)
    values["tait.map_p50_ms"] = extra.get("map_p50_ms", 0.0)
    tail = f"map_p{wl.TAIT_TAIL}_ms"
    values[f"tait.{tail}"] = extra.get(tail, 0.0)
    values["trace.slowdown"] = (statistics.median(r["wall_s"] for r in traced)
                                / plain["wall_s"])

    units = per_layer_units()
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    table = {"workload": args.workload, "seed": args.seed,
             "untraced_wall_s": plain["wall_s"],
             "traced_wall_s": [r["wall_s"] for r in traced],
             "spans": [r["spans"] for r in traced],
             "metrics": metrics, "layers": layers}
    (OUT / f"layers-{args.workload}.json").write_text(json.dumps(table, indent=1))

    print(f"workload {args.workload}, seed {args.seed}: one untraced and two traced "
          f"repetitions; tracing slowdown {values['trace.slowdown']:.3f}; "
          f"{traced[0]['spans']} spans each")
    busiest = sorted(layers[0].items(), key=lambda kv: -kv[1]["self_s"])[:12]
    for name, s in busiest:
        print(f"  {name:42s} {s['calls']:9d} calls {s['self_s']:10.4f} s self")
    print(f"  call counts equal in both traced repetitions: {'yes' if calls_agree else 'NO'}")
    if missing:
        print(f"  expected calls missing: {', '.join(missing)}")
    print_checks(records)
    return {"correct": correct, "attempted": sum(r["attempted"] for r in records),
            "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "tetracolor" / "__init__.py").is_file():
        print(f"no tetracolor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the build: byte-compile once, so no repetition pays for it
    for tree in (ROOT / "src", HERE):
        if not compileall.compile_dir(tree, quiet=1):
            print(f"byte-compiling {tree} failed", file=sys.stderr)
            return 2
    try:
        result = (traced_run if args.trace else timed_run)(args, deadline)
    except RepFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
