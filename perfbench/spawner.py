"""Starts the commands of the CLI workload from a process that stays small.

The kernel counts in a child's peak resident set the pages its parent had
resident when the child was forked, so a command started straight from the
benchmark process (which holds NumPy, bondkit and the oracle) would report
that process's size.  The benchmark starts this script once and sends it the
commands instead.

Protocol: one JSON list ``[argv, env, stdout path, stderr path]`` per line on
standard input; one JSON list ``[exit code, wall seconds, peak RSS in MB]``
per command back on standard output.
"""

import json
import os
import subprocess
import sys
import time

for line in sys.stdin:
    argv, env, out_path, err_path = json.loads(line)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, seconds, usage.ru_maxrss / 1024.0]), flush=True)
