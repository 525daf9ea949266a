"""Peak memory of a process tree, sampled from outside the process.

    python3 perfbench/memwatch.py PID

Samples the summed proportional set size (PSS) of process PID and of its
children until standard input is closed, then prints
``{"peak_kb": ..., "samples": ...}``. PSS splits each shared page among the
processes that map it, so pages a forked pool worker shares with its parent
count once in the sum. The watcher runs in a process of its own so that it
takes no lock of the process it watches, and it leaves itself out of the sum.

Reading PSS walks a process's page tables (about 0.3 ms for 250 MB), too slow
to catch the peaks of the program's large temporaries, which last about
10 ms. So every ``SAMPLE_S`` the watcher reads each process's resident set
from ``statm``, which costs almost nothing, and subtracts that process's
RSS - PSS gap, which moves slowly with the shared pages and is read again
every ``GAP_S``.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time
from pathlib import Path

SAMPLE_S = 0.005
GAP_S = 0.1
CHILDREN_S = 0.02
PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


def rss_pss_kb(pid: int) -> tuple[int, int] | None:
    """(RSS, PSS) of a process from ``smaps_rollup``; None once it has exited."""
    rss = pss = None
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Rss:"):
                    rss = int(line.split()[1])
                elif line.startswith("Pss:"):
                    pss = int(line.split()[1])
    except OSError:
        return None
    return None if rss is None or pss is None else (rss, pss)


def rss_kb(fd: int) -> int:
    """Resident set from an open ``statm``; 0 once the process has exited."""
    try:
        fields = os.pread(fd, 128, 0).split()
    except OSError:
        return 0
    return int(fields[1]) * PAGE_KB if len(fields) > 1 else 0


def tree(root: int) -> set[int]:
    """``root`` and its children, this watcher excepted."""
    pids = {root}
    for task in Path(f"/proc/{root}/task").iterdir():
        try:
            pids.update(int(p) for p in (task / "children").read_text().split())
        except OSError:
            pass
    pids.discard(os.getpid())
    return pids


def main() -> int:
    root = int(sys.argv[1])
    if rss_pss_kb(root) is None:
        print(f"cannot read /proc/{root}/smaps_rollup (needs Linux 4.14+)", file=sys.stderr)
        return 2
    peak, samples = 0, 0
    statm: dict[int, int] = {}  # pid -> open statm
    gaps: dict[int, int] = {}  # pid -> RSS - PSS, in kB
    next_children = next_gaps = 0.0
    while True:
        now = time.monotonic()
        if now >= next_children:
            pids = tree(root)
            for pid in set(statm) - pids:
                os.close(statm.pop(pid))
                gaps.pop(pid, None)
            for pid in pids - set(statm):
                try:
                    statm[pid] = os.open(f"/proc/{pid}/statm", os.O_RDONLY)
                except OSError:
                    pass
            next_children = now + CHILDREN_S
        if now >= next_gaps:
            for pid in statm:
                both = rss_pss_kb(pid)
                if both is not None:
                    gaps[pid] = both[0] - both[1]
            next_gaps = now + GAP_S
        total = sum(rss_kb(fd) - gaps[pid] for pid, fd in statm.items()
                    if pid in gaps)
        peak = max(peak, total)
        samples += 1
        if select.select([sys.stdin], [], [], SAMPLE_S)[0]:
            break
    print(json.dumps({"peak_kb": peak, "samples": samples}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
