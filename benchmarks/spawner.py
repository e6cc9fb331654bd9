"""Starts the CLI processes of ``cli_cold`` ops on behalf of the worker.

A process's peak RSS (``ru_maxrss``) starts from the RSS of the process
that forked it, so a CLI process forked by the worker, which holds NumPy,
SciPy and the package, would report at least the worker's RSS.  This small
process (started with ``python -S``, before it imports anything else) forks
them instead, so that their peak RSS is their own.

Protocol: one JSON list of command-line arguments per line on stdin; one
JSON object per line on stdout with the exit code, stdout, stderr and wall
time of that process.  At the end of stdin it writes the largest peak RSS
of its children, in kB, and exits.
"""

import json
import resource
import subprocess
import sys
import time

TIMEOUT_S = 60.0


def main():
    for line in sys.stdin:
        cmd = json.loads(line)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
        wall = time.perf_counter() - t0
        print(json.dumps({"code": proc.returncode, "stdout": proc.stdout,
                          "stderr": proc.stderr, "wall_s": wall}), flush=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"peak_rss_kb": peak}), flush=True)


if __name__ == "__main__":
    main()
