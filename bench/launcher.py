"""Starts program processes for run.py and reports what each one used.

Linux carries a process's peak RSS over from the process that forked it, so
a program started by the benchmark, which holds the workload inputs, would
report the benchmark's peak as its own. This launcher is started before the
benchmark loads anything and stays small. It reads one JSON request per line
on stdin, {"argv": [...], "cwd": ..., "log": ..., "timeout": s}, runs
``python3 argv`` with stdout discarded and stderr appended to the log, and
answers with one JSON line {"rc", "wall_s", "cpu_s", "rss_mb"}.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, cwd, log_path, timeout):
    start = time.perf_counter()
    with open(log_path, "ab") as log:
        log.write(f"$ python3 {' '.join(argv)}\n".encode())
        log.flush()
        proc = subprocess.Popen([sys.executable] + argv, cwd=cwd, stdout=subprocess.DEVNULL, stderr=log)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": time.perf_counter() - start,
            "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss * 1024 / 1e6}


def main():
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run(req["argv"], req["cwd"], req["log"], req["timeout"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
