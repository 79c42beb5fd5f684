#!/usr/bin/env python3
"""Claims C1..C6 over the exhaustive corpus of orders 4..18.

    PYTHONPATH=src python3 scripts/claims_n18.py

A long run, kept out of the test suite: about 65 s and 360 MiB on a
2-core x86-64 VM.  It builds corpus(18), about 18 s of that, and checks
order 18 against its anchors: 407,802 rooted simple maps, 118,668 rooted
3-connected maps (OEIS A000260) and 1,249 3-connected maps up to
reflection (OEIS A000109).  If one fails it exits 1 before any claim runs.  Then it runs
C1..C6 once each, in one process, and emits every report as jsonl, csv
and text.  Per claim it prints the instances, the violations, the wall
time, the peak RSS so far and the sha256 of each report with its runtime
masked, so that two runs can be compared.  It also prints the sha256 of
the sorted order-18 keys.
"""

import hashlib
import re
import resource
import sys
import time
from fractions import Fraction

from tetracolor.harness import (CLAIM_IDS, _automorphisms, canonical_form,
                                check_claim, corpus, emit_report,
                                is_three_connected)

ORDER = 18
ROOTED_SIMPLE = 407_802
ROOTED_THREE_CONNECTED = 118_668      # A000260
THREE_CONNECTED = 1_249               # A000109
FORMATS = ("jsonl", "csv", "text")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def masked(report: str) -> str:
    report = re.sub(r'"runtime_s": [0-9.e-]+', '"runtime_s": 0', report)
    return re.sub(r"runtime: [0-9.]+s", "runtime: 0.00s", report)


def rooted(maps) -> Fraction:
    """Σ 2·D/|Aut(M)| over maps: the rooted maps they stand for."""
    return sum((Fraction(2 * m.dart_count, len(_automorphisms(m))) for m in maps),
               Fraction(0))


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    sys.stdout.reconfigure(line_buffering=True)    # progress as it comes
    t0 = time.monotonic()
    maps = corpus(ORDER)
    top = [m for m in maps if m.vertex_count == ORDER]
    three = [m for m in top if is_three_connected(m)]
    print(f"corpus({ORDER}): {len(maps)} maps, {len(top)} of order {ORDER}, "
          f"{time.monotonic() - t0:.1f} s, peak RSS {peak_rss_mib():.0f} MiB")
    anchors = {"rooted simple": (rooted(top), ROOTED_SIMPLE),
               "rooted 3-connected (A000260)": (rooted(three), ROOTED_THREE_CONNECTED),
               "3-connected (A000109)": (len(three), THREE_CONNECTED)}
    ok = True
    for name, (got, want) in anchors.items():
        print(f"  order {ORDER} {name}: {got} (want {want}) "
              f"{'ok' if got == want else 'FAIL'}")
        ok = ok and got == want
    if not ok:
        return 1
    keys = "\n".join(sorted(canonical_form(m) for m in top))
    print(f"  order {ORDER} keys sha256 {sha256(keys)}")

    for claim in CLAIM_IDS:
        t0 = time.monotonic()
        report = check_claim(claim, maps)
        texts = {fmt: emit_report(report, fmt) for fmt in FORMATS}
        took = time.monotonic() - t0
        print(f"{claim}: {report.instances_checked} instances, "
              f"{len(report.violations)} violations, {took:.1f} s, "
              f"peak RSS {peak_rss_mib():.0f} MiB")
        for fmt, text in texts.items():
            print(f"  {fmt:5s} sha256 {sha256(masked(text))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
