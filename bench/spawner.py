"""Starts the timed CLI commands for ``run.py`` from a small process.

A child's peak RSS (``ru_maxrss``) starts from the resident pages of the
process that started it, since fork and vfork copy or share them until exec.
Started from the benchmark, which holds numpy, scipy and the corpus, every
command would report the benchmark's size.  This process imports nothing
heavy, so its children report their own peak.

Protocol, one JSON object per line: ``{"argv", "out", "err", "timeout"}`` on
standard input runs ``argv`` with its output in the files ``out`` and
``err`` and answers ``{"seconds", "code"}`` (``code`` is null on timeout).
At end of input it answers ``{"maxrss_kib"}``, the largest peak RSS of any
command it ran.
"""

import json
import resource
import subprocess
import sys
import threading
from time import perf_counter


def run(argv, out, err, timeout: float):
    """``(seconds, exit code or None on timeout)``.

    ``Popen.wait(timeout)`` polls with sleeps of up to 50 ms, which would
    round every time up; a blocking wait with a kill timer returns at exit.
    """
    killed = threading.Event()
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=out, stderr=err)

    def kill() -> None:
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    return perf_counter() - t0, None if killed.is_set() else code


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "w") as out, open(req["err"], "w") as err:
            seconds, code = run(req["argv"], out, err, req["timeout"])
        print(json.dumps({"seconds": seconds, "code": code}), flush=True)
    print(json.dumps({"maxrss_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}),
          flush=True)


if __name__ == "__main__":
    main()
