"""Run a command and fail when its peak resident set size exceeds a limit.

Usage::

    python benchmarks/peak_rss.py --limit-mb 1024 -- COMMAND [ARG ...]

Runs ``COMMAND`` to completion, then reads the peak RSS of its process
tree with ``resource.getrusage(RUSAGE_CHILDREN)`` — the largest
``ru_maxrss`` among the descendants this process has waited for, which
includes a grandchild that a child such as ``timeout`` waited for.  It
prints one line ``peak_rss_mb=<MB> limit_mb=<MB>`` and exits with the
command's status, or 1 when the command succeeded but its peak RSS went
over the limit.  MB here is 2**20 bytes, as in perfbench's
``peak_rss_mb``, so ``--limit-mb 1024`` is 1 GiB; Linux reports
``ru_maxrss`` in KiB and macOS in bytes.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys
from typing import List, Optional


def peak_rss_mb() -> float:
    """The peak RSS of the waited-for descendants, in MB."""
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    unit = 1 if sys.platform == "darwin" else 1024
    return peak * unit / 2 ** 20


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--limit-mb", type=float, required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command to run")
    status = subprocess.call(command)
    peak = peak_rss_mb()
    print(f"peak_rss_mb={peak:.1f} limit_mb={args.limit_mb:g}", flush=True)
    if status == 0 and peak > args.limit_mb:
        print(
            f"peak RSS {peak:.1f} MB exceeds the {args.limit_mb:g} MB limit",
            file=sys.stderr,
        )
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
