"""Child-process launcher for bench/run.py.

Reads one JSON request per line on stdin, ``{"argv": [...], "stderr": path}``,
runs the command to its end and answers with one JSON line
``{"wall": s, "maxrss_kb": kb, "status": code}``; exits at end of input.

It exists so that every measured child is started from this small process.
Linux carries the parent's peak RSS into a child's ``ru_maxrss`` across
fork and exec, so children started from the benchmark process itself, which
holds N=512 systems, would report the benchmark's peak instead of their own.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "maxrss_kb": usage.ru_maxrss,
                          "status": proc.returncode}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
