"""One repetition of a workload, in a fresh interpreter.

    python3 bench/rep.py ROOT WORKLOAD SEED MODE [SPANS]

MODE is `setup` (prepare the inputs and stop), `timed` or `traced`.  The
last line of standard output is one JSON record.  `t_first` is
`time.monotonic()` just before the timed part, which the parent compares
with its own clock from before the spawn to get the set-up time (both
read CLOCK_MONOTONIC).  A traced repetition writes its spans to SPANS.

A fresh interpreter per repetition is required: the generator's level
cache and the harness trace memo live as long as the process, and
`ru_maxrss` is a high-water mark of the whole process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    root, workload, seed, mode = Path(argv[0]), argv[1], int(argv[2]), argv[3]
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import tetracolor
    if src not in Path(tetracolor.__file__).resolve().parents:
        print(f"tetracolor imported from {tetracolor.__file__}, not {src}",
              file=sys.stderr)
        return 3

    from tracer import Tracer
    from workloads import WORKLOADS

    w = WORKLOADS[workload]()
    w.setup(seed)
    record = {"t_first": time.monotonic()}
    if mode == "setup":
        print(json.dumps(record))
        return 0

    tracer = Tracer() if mode == "traced" else None
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    try:
        units = w.run(tracer)
    finally:
        wall = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
    record.update(wall_s=wall - w.check_s, units=units,
                  rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    out = w.check()
    record.update(attempted=out.attempted, failed=out.failed, checks=out.checks,
                  digests=out.digests, extra=out.extra)
    if tracer:
        record["layers"] = tracer.stats()
        record["spans"] = tracer.write_spans(argv[4])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
