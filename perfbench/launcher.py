"""Starts CLI processes on request and reports their peak RSS.

    python3 launcher.py TIMEOUT_S

Reads one JSON argv per line on stdin and answers each with one JSON line
``[exit code, stdout, stderr]``; a command that runs past ``TIMEOUT_S`` is
killed and answered with exit code -1. When stdin closes it prints the
largest peak RSS of its children in KiB and exits. On Linux a child's
``ru_maxrss`` counts the RSS of the process that started it; this process
imports no numpy, so its children's peak is their own.
"""

import json
import resource
import subprocess
import sys


def main() -> None:
    timeout_s = float(sys.argv[1])
    for line in sys.stdin:
        try:
            p = subprocess.run(json.loads(line), capture_output=True, text=True, timeout=timeout_s, check=False)
            reply = [p.returncode, p.stdout, p.stderr]
        except subprocess.TimeoutExpired:
            reply = [-1, "", f"timed out after {timeout_s} s"]
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


if __name__ == "__main__":
    main()
