"""Starts the benchmark's child processes from a process that stays small.

Linux carries a process's peak resident memory across fork and exec, so a
child started directly by ``run.py``, which holds generated inputs and parsed
outputs, would report at least ``run.py``'s own peak. This launcher imports
nothing heavy and keeps no data, so the peak that ``os.wait4`` reports for
its children is theirs.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "stdout": PATH, "stderr": PATH, "env": {...}, "timeout": S}``;
one JSON reply per line on stdout, ``{"wall_s": S, "rss_mb": MiB, "code": N}``.
The child is killed after ``timeout`` seconds. The launcher exits at end of
input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, env=request["env"])
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall_s, "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
