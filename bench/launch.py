"""Start one command from a small process and report what it used.

    python3 -S -I bench/launch.py RESULT.json -- ARGV...

The command inherits this process's stdout, stderr, working directory and
environment.  When it ends, RESULT.json gets its wall time (fork to exit),
user and system CPU time and max-RSS from ``wait4``, its exit code, and
``floor_kib``, this launcher's own peak RSS.  The exit code of the launcher
is the command's.

Why a launcher: on Linux, ``exec`` folds the peak RSS of the address space
it replaces into the process's max-RSS.  A command started straight from the
benchmark (``subprocess`` uses ``vfork``) would therefore report at least the
benchmark's own peak, numpy and oracle tables included.  Forked from this
interpreter, which imports almost nothing, the command's max-RSS can only be
raised to ``floor_kib``.

On SIGTERM the launcher kills the command, waits for it and exits.
"""

import json
import os
import signal
import sys
import time


def _peak_rss_kib():
    """VmHWM of this address space (not of the process: exec kept that)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def main():
    result_path, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--" or not argv:
        sys.exit("usage: launch.py RESULT.json -- ARGV...")
    # SIGTERM stays blocked until the handler knows whom to kill
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
            os.execvp(argv[0], argv)
        except OSError as exc:
            os.write(2, f"launch.py: cannot run {argv[0]}: {exc}\n".encode())
        finally:
            os._exit(127)
    signal.signal(signal.SIGTERM, lambda signum, frame: os.kill(pid, signal.SIGKILL))
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    with open(result_path, "w") as fh:
        json.dump({"wall_s": wall, "utime_s": ru.ru_utime, "stime_s": ru.ru_stime,
                   "maxrss_kib": ru.ru_maxrss, "exit": code,
                   "floor_kib": _peak_rss_kib()}, fh)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main())
