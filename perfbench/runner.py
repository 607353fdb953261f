"""Child-process runner: starts each command and times it, from a small process.

On Linux a child's max-RSS includes the high-water RSS of the process that
spawned it (exec folds the old address space's peak into the child's
figure). run.py grows while it checks large outputs, so it
does not spawn the measured commands itself: it starts this runner once,
while still small, and sends it one JSON request per line on stdin:

    {"argv": [...], "cwd": "...", "stdout": "path", "stderr": "path", "timeout_s": 170}

For each it replies with one JSON line: {"seconds", "cpu_s", "max_rss_kb",
"exit_code"}, where `cpu_s` is the command's user plus system time.
The runner stops when its stdin closes.
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
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdout=out, stderr=err)
        timer = threading.Timer(request["timeout_s"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "cpu_s": usage.ru_utime + usage.ru_stime, "max_rss_kb": usage.ru_maxrss,
            "exit_code": proc.returncode}


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
