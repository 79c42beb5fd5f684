"""The benchmark's three workloads and the checks it makes on their outputs.

Each workload has `setup(seed)` (untimed input preparation), `run(tracer)`
(the timed part; returns the units of work done) and `check()` (untimed;
returns an `Outcome`).  The checks use logic of the benchmark's own
(counts from published tables, face walks over the map text, a colour
check at every vertex) wherever it does not have to call the code under
test.

- gen: exhaustive generation of orders 4..12, one `harness.corpus` call
  per order, so canonical forms and edge insertion carry the load.
- sweep: the six claims C1..C6, in order and in one process, over a
  seeded sample of the frozen simple maps of orders 4..16; reduction,
  surgeries and report emission carry the load, and the harness trace
  memo is shared between claims exactly as a full claim sweep shares it.
- tait: seeded random maps of orders 24..48, each Tait-coloured under a
  work budget, then coloured through the face route and decomposed into
  closed trails; the colouring solvers and dscc carry the load.
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ORDERS_GEN = (4, 6, 8, 10, 12)
# per-order counts of loopless bridgeless cubic planar multigraph maps, and of
# the simple ones among them, up to reflection
MULTIGRAPH_COUNTS = {4: 2, 6: 4, 8: 14, 10: 54, 12: 291}
SIMPLE_COUNTS = {4: 1, 6: 1, 8: 3, 10: 8, 12: 32, 14: 131, 16: 723}
# the growth seed (the order-2 dipole) is kept as well
GEN_UNITS = 1 + sum(MULTIGRAPH_COUNTS.values())

MAPS16 = Path(__file__).with_name("maps16.txt")
MAPS16_SHA256 = "1668491f23b1f395520bdfe930c346dae93b88e8924efa5caeede370fae7236b"
# share of every (order, pentagon count) stratum that one sweep sample takes,
# so every seed gets the same number of maps, pentagons and claim instances
SWEEP_SHARE = 1 / 10
# the order-14 map with six pentagons, whose reductions recur to topology T1
# in both orientations (13 + 11 C5 witnesses); always drawn, so that every
# sample replays witnesses
SWEEP_PINNED = 175

TAIT_ORDERS = (24, 32, 40, 48)
TAIT_PER_ORDER = 50
TAIT_MAPS = len(TAIT_ORDERS) * TAIT_PER_ORDER
# the highest percentile of per-map latency with at least ten maps beyond it
TAIT_TAIL = int(100 * (1 - 10 / TAIT_MAPS))
# Tait-solver work per map, in calls of RotationMap.edge_endpoints (one or
# more per search node, about 2.5 ms per thousand on a 2-core x86 VM); a
# count, unlike a clock, gives the same outcome on every run.  About half
# the maps run out of it, which keeps the work per seed steady although
# single solve times spread over four orders of magnitude.
TAIT_BUDGET = 3_000
# wall-clock backstop for a solver that no longer calls edge_endpoints
TAIT_LIMIT_S = 2.0


@dataclass
class Outcome:
    attempted: int
    failed: int
    checks: dict[str, bool]
    digests: dict[str, str]
    extra: dict = field(default_factory=dict)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# the benchmark's own map logic
# ---------------------------------------------------------------------------

def neighbor_lists(text: str) -> list[list[int]]:
    """0-based clockwise neighbour lists of a map file's text."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    n = int(lines[0])
    rows = {}
    for ln in lines[1:]:
        head, _, tail = ln.partition(":")
        rows[int(head) - 1] = [int(t) - 1 for t in tail.split()]
    return [rows[v] for v in range(n)]


def face_lengths(text: str) -> list[int]:
    """Face lengths of a simple map, by walking darts (u, v) -> (v, w) with w
    the neighbour after u in v's rotation."""
    nbrs = neighbor_lists(text)
    unseen = {(u, v) for u in range(len(nbrs)) for v in nbrs[u]}
    lengths = []
    while unseen:
        start = dart = min(unseen)
        length = 0
        while True:
            unseen.discard(dart)
            length += 1
            u, v = dart
            rot = nbrs[v]
            dart = (v, rot[(rot.index(u) + 1) % len(rot)])
            if dart == start:
                break
        lengths.append(length)
    return lengths


def tait_ok(m, ec) -> bool:
    """Proper 3-edge-colouring: one colour per edge, three distinct colours
    at every vertex."""
    edges = {m.edge_id(d) for d in range(m.dart_count)}
    if set(ec.assignment) != edges:
        return False
    return all(len({ec.assignment[m.edge_id(d)] for d in m.vertex_darts(v)}) == 3
               and len(m.vertex_darts(v)) == 3
               for v in range(m.vertex_count))


def face4_ok(m, fc) -> bool:
    """Proper face 4-colouring: the two sides of every edge differ."""
    if set(fc.assignment) != set(range(m.face_count)):
        return False
    return all(fc.assignment[m.face_of(d)] != fc.assignment[m.face_of(m.twin(d))]
               for d in range(m.dart_count))


def trails_ok(m, trails, edge_set) -> bool:
    """The trails are closed walks that use every edge of edge_set once."""
    used = []
    for t in trails:
        darts = t.darts
        if any(m.head(darts[i]) != m.origin(darts[(i + 1) % len(darts)])
               for i in range(len(darts))):
            return False
        used.extend(m.edge_id(d) for d in darts)
    return len(used) == len(set(used)) and set(used) == edge_set


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

class Gen:
    """Exhaustive generation of orders 4..12; deterministic, so no seed."""

    def __init__(self):
        self.check_s = 0.0

    def setup(self, seed: int) -> None:
        from tetracolor import harness
        self.harness = harness

    def run(self, tracer) -> int:
        self.maps = {}
        for n in ORDERS_GEN:
            if tracer:
                tracer.op = n
            self.maps[n] = self.harness.corpus(n, n_min=n)
        return GEN_UNITS

    def check(self) -> Outcome:
        checks, digests = {}, {}
        failed = 0
        # the multigraph levels are visible only through the generator's level
        # function; a generator without it fails this check loudly
        level = getattr(self.harness, "_exhaustive_level", None)
        for n in ORDERS_GEN:
            simple = self.maps[n]
            keys = sorted(self.harness.canonical_form(m) for m in simple)
            ok_simple = (len(simple) == SIMPLE_COUNTS[n] == len(set(keys))
                         and all(m.vertex_count == n for m in simple))
            multi = [key for key, _ in level(n)] if level else []
            ok_multi = len(multi) == MULTIGRAPH_COUNTS[n] == len(set(multi))
            checks[f"order{n}.simple_count"] = ok_simple
            checks[f"order{n}.multigraph_count"] = ok_multi
            digests[f"order{n}.simple_keys"] = sha256("\n".join(keys))
            digests[f"order{n}.multigraph_keys"] = sha256("\n".join(sorted(multi)))
            failed += not (ok_simple and ok_multi)
        return Outcome(len(ORDERS_GEN), failed, checks, digests)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def load_maps16() -> list[str]:
    """The frozen simple maps of orders 4..16, verified against their digest
    and the published per-order counts."""
    raw = MAPS16.read_bytes()
    if hashlib.sha256(raw).hexdigest() != MAPS16_SHA256:
        raise ValueError(f"{MAPS16.name}: sha256 mismatch")
    texts = [t + "\n" for t in raw.decode().rstrip("\n").split("\n\n")]
    counts = Counter(len(neighbor_lists(t)) for t in texts)
    if dict(counts) != SIMPLE_COUNTS:
        raise ValueError(f"{MAPS16.name}: per-order counts {dict(counts)}")
    return texts


def sweep_sample(texts: list[str], seed: int) -> tuple[list[int], list[int]]:
    """Indices drawn without replacement, SWEEP_SHARE of every (order,
    pentagon count) stratum, in corpus order; and their pentagon counts."""
    strata: dict[tuple[int, int], list[int]] = {}
    pentagons = []
    for i, text in enumerate(texts):
        p = face_lengths(text).count(5)
        pentagons.append(p)
        strata.setdefault((len(neighbor_lists(text)), p), []).append(i)
    rng = random.Random(seed)
    picked = []
    for key in sorted(strata):
        members = strata[key]
        k = round(len(members) * SWEEP_SHARE)
        if SWEEP_PINNED in members:
            members = [i for i in members if i != SWEEP_PINNED]
            picked.append(SWEEP_PINNED)
            k = max(k - 1, 0)
        picked.extend(rng.sample(members, k))
    picked.sort()
    return picked, [pentagons[i] for i in picked]


def jsonl_digest(jsonl: str) -> str:
    """sha256 of a jsonl report with its runtime field removed."""
    rows = []
    for line in jsonl.splitlines():
        rec = json.loads(line)
        rec.pop("runtime_s", None)
        rows.append(json.dumps(rec, sort_keys=True))
    return sha256("\n".join(rows))


class Sweep:
    """All six claims over a seeded sample of the frozen corpus."""

    def __init__(self):
        self.check_s = 0.0

    def setup(self, seed: int) -> None:
        from tetracolor import harness, kempe, planar_map
        self.harness, self.kempe, self.planar_map = harness, kempe, planar_map
        texts = load_maps16()
        self.picked, pentagons = sweep_sample(texts, seed)
        self.maps = [planar_map.parse_map(texts[i]) for i in self.picked]
        reductions = 5 * sum(pentagons)
        self.expected = {"C1": len(self.maps), "C2": reductions, "C3": reductions,
                         "C4": 2 * reductions, "C5": 2 * reductions,
                         "C6": 2 * reductions}

    def run(self, tracer) -> int:
        harness = self.harness
        inner = harness.run_procedure
        self.anomalies: Counter = Counter()
        self.bad_expansions = 0
        self.reductions = 0
        check_span = tracer.span if tracer else (lambda name: nullcontext())

        def checked_run_procedure(*args, **kwargs):
            tr = inner(*args, **kwargs)
            # checked here, while the trace is alive, so that no reference
            # held by the benchmark changes the sweep's memory; the time is
            # taken out of wall_s
            t0 = time.perf_counter()
            with check_span("bench.check_expansion"):
                self.reductions += 1
                if tr.anomaly:
                    self.anomalies[tr.anomaly] += 1
                if tr.succeeded and not tait_ok(*tr.result):
                    self.bad_expansions += 1
            self.check_s += time.perf_counter() - t0
            return tr

        self.reports = {}
        harness.run_procedure = checked_run_procedure
        try:
            for op, claim in enumerate(harness.CLAIM_IDS, 1):
                if tracer:
                    tracer.op = op
                report = harness.check_claim(claim, self.maps)
                jsonl = harness.emit_report(report, "jsonl")
                harness.emit_report(report, "csv")
                self.reports[claim] = (report.instances_checked,
                                       report.violations, jsonl)
        finally:
            harness.run_procedure = inner
        return sum(n for n, _, _ in self.reports.values())

    def check(self) -> Outcome:
        parse_map, kempe = self.planar_map.parse_map, self.kempe
        checks, digests = {}, {}
        failed = 0
        for claim, (checked, violations, jsonl) in self.reports.items():
            want = self.expected[claim]
            ok_count = checked == want
            checks[f"{claim}.instance_count"] = ok_count
            failed += 0 if ok_count else max(want, checked)
            digests[f"{claim}.jsonl"] = jsonl_digest(jsonl)
            if claim in ("C1", "C2", "C3", "C4"):
                # C1 holds by the four colour theorem and C2..C4 by parity
                # arguments, so a violation is a defect
                checks[f"{claim}.clean"] = not violations
                failed += len(violations)
                continue
            replayed = 0
            for text, witness in violations:
                m = parse_map(text)
                u, v = witness["edge"]
                tr = kempe.run_procedure(m, witness["pentagon"],
                                         deleted_edge=m.find_edge(u - 1, v - 1))
                replayed += (tr.to_jsonl() == witness["trace"]
                             and kempe.replay_trace(m, tr))
            checks[f"{claim}.witnesses_replay"] = replayed == len(violations)
            failed += len(violations) - replayed
        checks["expanded_colorings_proper"] = self.bad_expansions == 0
        failed += self.bad_expansions
        digests["sample"] = sha256(",".join(map(str, self.picked)))
        return Outcome(sum(self.expected.values()), failed, checks, digests, {
            "maps": len(self.maps),
            "violations": {c: len(r[1]) for c, r in self.reports.items()},
            "reductions": self.reductions,
            "anomalies": dict(self.anomalies)})


# ---------------------------------------------------------------------------
# tait
# ---------------------------------------------------------------------------

class OverBudget(Exception):
    pass


def _over_limit(signum, frame):
    raise OverBudget("wall-clock limit")


def budgeted(m, budget: int):
    """A copy of m, with the same dart numbering, whose edge_endpoints
    raises OverBudget after `budget` calls."""
    from tetracolor.planar_map import RotationMap

    class BudgetMap(RotationMap):
        __slots__ = ("left",)

        def edge_endpoints(self, e):
            self.left -= 1
            if self.left < 0:
                raise OverBudget("work budget")
            return RotationMap.edge_endpoints(self, e)

    darts = range(m.dart_count)
    copy = BudgetMap([m.twin(d) for d in darts], [m.origin(d) for d in darts],
                     [m.next(d) for d in darts], m.vertex_count)
    copy.left = budget
    return copy


class Tait:
    """Random maps coloured by the Tait solver and by the face route."""

    def __init__(self):
        self.check_s = 0.0

    def setup(self, seed: int) -> None:
        from tetracolor import coloring, dscc, harness
        self.coloring, self.dscc = coloring, dscc
        self.maps = []
        for n in TAIT_ORDERS:
            cfg = harness.GenConfig(n, mode="random", count=TAIT_PER_ORDER,
                                    seed=seed * 1000 + n)
            self.maps.extend(harness.generate(cfg))
        self.budgeted = [budgeted(m, TAIT_BUDGET) for m in self.maps]
        signal.signal(signal.SIGALRM, _over_limit)

    def run(self, tracer) -> int:
        col, dscc = self.coloring, self.dscc
        self.results = []
        self.latency_ms = []
        for i, (m, b) in enumerate(zip(self.maps, self.budgeted)):
            if tracer:
                tracer.op = i
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, TAIT_LIMIT_S)
            over = False
            try:
                tait = col.find_tait_coloring(b)
            except OverBudget:
                tait, over = None, True
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            fc = col.find_face_4coloring(m)
            ec = col.face4_to_edge3(m, fc)
            back = col.edge3_to_face4(m, ec)
            dec = dscc.decompose(m, ec)
            self.latency_ms.append((time.perf_counter() - t0) * 1000)
            self.results.append((tait, over, fc, ec, back, dec))
        return len(self.maps)

    def check(self) -> Outcome:
        from tetracolor.coloring import EdgeColor
        blue = {EdgeColor.BLUE, EdgeColor.GREEN}
        yellow = {EdgeColor.YELLOW, EdgeColor.GREEN}
        failed = 0
        over = 0
        lines = []
        bad = Counter()
        for m, (tait, over_budget, fc, ec, back, dec) in zip(self.maps, self.results):
            ok = True
            if tait is None:
                over += over_budget
                lines.append("tait -")
                if not over_budget:
                    bad["tait_unsolved"] += 1   # bridgeless maps are colourable
                    ok = False
            else:
                lines.append("tait " + "".join(str(c) for c in tait.assignment.values()))
                if not tait_ok(m, tait):
                    bad["tait_proper"] += 1
                    ok = False
            lines.append("face " + "".join(str(c) for c in fc.assignment.values()))
            for name, good in (
                    ("face_proper", face4_ok(m, fc)),
                    ("face_edge_proper", tait_ok(m, ec)),
                    ("face_round_trip", back == fc),
                    ("dscc_blue", trails_ok(m, dec.blue_trails,
                                            {e for e, c in ec.assignment.items() if c in blue})),
                    ("dscc_yellow", trails_ok(m, dec.yellow_trails,
                                              {e for e, c in ec.assignment.items() if c in yellow}))):
                if not good:
                    bad[name] += 1
                    ok = False
            failed += not ok
        checks = {name: not bad[name] for name in
                  ("tait_unsolved", "tait_proper", "face_proper", "face_edge_proper",
                   "face_round_trip", "dscc_blue", "dscc_yellow")}
        tail = statistics.quantiles(self.latency_ms, n=100, method="inclusive")
        return Outcome(len(self.maps), failed, checks,
                       {"colorings": sha256("\n".join(lines))},
                       {"maps": len(self.maps), "tait_over_budget": over,
                        "map_p50_ms": statistics.median(self.latency_ms),
                        f"map_p{TAIT_TAIL}_ms": tail[TAIT_TAIL - 1]})


WORKLOADS = {"gen": Gen, "sweep": Sweep, "tait": Tait}
