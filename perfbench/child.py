"""Run one manychain command with the benchmark's probes installed.

    python3 perfbench/child.py RECORD TRACE -- <manychain arguments>

RECORD is a path prefix: RECORD.json receives the timestamps and counts,
RECORD.npz the arrays (run states, streamed moments and, with TRACE 1, the
spans). Timestamps are time.monotonic(), the clock the parent read when it
started this process, so the two can be subtracted.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

import probe


def peak_rss_kb() -> int:
    """Peak resident memory of this process image. getrusage's ru_maxrss is
    not used: Linux carries the spawning parent's peak over into it."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv) -> int:
    record_path, trace = argv[0], argv[1] == "1"
    if argv[2] != "--":
        raise SystemExit("usage: child.py RECORD TRACE -- <manychain arguments>")
    from manychain import cli

    tracer = probe.Tracer() if trace else None
    if tracer is not None:
        probe.install_tracing(tracer)
    rec = probe.Record()
    probe.install_markers(rec)

    rec.calibrate()
    code = cli.main(argv[3:])
    end = time.monotonic()
    rec.calibrate()

    arrays = dict(rec.arrays)
    out = {"exit": code, "first_step": rec.first_step, "end": end,
           "steps": rec.steps, "passes": rec.passes, "calibration": rec.calibration,
           "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        out["counts"] = dict(tracer.counts)
        out["span_names"] = tracer.names
        arrays.update({f"span_{k}": v for k, v in tracer.spans().items()})
    np.savez(record_path + ".npz", **arrays)
    with open(record_path + ".json", "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
