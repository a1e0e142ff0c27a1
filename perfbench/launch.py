"""Run the tautchi command line once in this process and record its phases.

Usage: python3 -I launch.py SRC TIMING_FILE SPANS_FILE|- -- CLI_ARGS...

SRC is the directory holding the `tautchi` package.  The launcher calls
`tautchi.cli.main(CLI_ARGS)` and reads the monotonic clock only around each
top-level `cli.run_one_job` call (a sweep is one job) and when `main`
returns.  It writes to TIMING_FILE:

  {"first_job_ns", "end_ns", "job_ns": [...], "peak_rss_kb", "exit_code"}

The clock is CLOCK_MONOTONIC, shared by all processes, so the parent can
subtract its own spawn time from `first_job_ns`.  With a SPANS_FILE the
per-layer tracer in `tracer.py` is installed first and its spans are written
there when `main` returns; with `-` nothing but `tautchi.cli` is imported.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def peak_rss_kb() -> int:
    """Peak resident set size of this process image.

    On Linux `ru_maxrss` also counts the memory of the parent that spawned
    this process, up to the exec, so the kernel's high-water mark of the
    current address space (VmHWM) is read instead where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    src, timing_path, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: launch.py SRC TIMING_FILE SPANS_FILE|- -- ARGS")
    sys.path.insert(0, src)
    from tautchi import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"tautchi was imported from {cli.__file__}, not {src}")

    recorder = None
    if spans_path != "-":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer
        recorder = tracer.install()

    job_ns: list[int] = []
    first: list[int] = []
    inner = cli.run_one_job
    depth = 0

    def timed_run_one_job(*args, **kwargs):
        nonlocal depth
        if depth:
            return inner(*args, **kwargs)
        depth += 1
        t0 = time.monotonic_ns()
        if not first:
            first.append(t0)
        try:
            return inner(*args, **kwargs)
        finally:
            job_ns.append(time.monotonic_ns() - t0)
            depth -= 1

    cli.run_one_job = timed_run_one_job
    code = cli.main(cli_args)
    end = time.monotonic_ns()

    if recorder is not None:
        recorder.write(spans_path)
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump({"first_job_ns": first[0] if first else None, "end_ns": end,
                   "job_ns": job_ns,
                   "peak_rss_kb": peak_rss_kb(),
                   "exit_code": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
