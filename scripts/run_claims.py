#!/usr/bin/env python3
"""Sweep every claim over the exhaustive corpus and write reports.

Writes one jsonl and one csv report per claim into the output directory,
plus a summary table on stdout.  The n=16 corpus build takes about 40 s
on first use (CPython 3.11, one core of a 2-core x86-64 VM).
"""

import argparse
import time
from pathlib import Path

from tetracolor.harness import CLAIM_IDS, CLAIM_TITLES, check_claim, corpus, emit_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=16)
    ap.add_argument("--claims", nargs="*", default=list(CLAIM_IDS))
    ap.add_argument("--out", default="out/claims")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    maps = corpus(args.n_max)
    print(f"corpus n<={args.n_max}: {len(maps)} maps "
          f"({time.monotonic() - t0:.0f}s)")

    worst = 0
    for claim in args.claims:
        report = check_claim(claim, maps)
        (out / f"{claim.lower()}.jsonl").write_text(emit_report(report, "jsonl"))
        (out / f"{claim.lower()}.csv").write_text(emit_report(report, "csv"))
        verdict = ("clean" if report.ok
                   else f"{len(report.violations)} violation(s)")
        print(f"{claim}  {CLAIM_TITLES[claim]}")
        print(f"    {report.instances_checked} instances, {verdict}, "
              f"{report.runtime:.1f}s")
        worst = max(worst, 0 if report.ok else 1)
    print(f"reports written to {out}/")
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
