"""Run nordlid CLI commands for the benchmark, each in its own forked child.

``run.py`` starts this server with BLAS and OpenMP pinned to one thread
in its environment. The server imports ``nordlid.cli`` once and then
forks a child per request, so a command's time covers ``cli.main`` alone
and excludes interpreter start-up and imports. The parent reads the
child's peak RSS from ``wait4``.

Protocol: one JSON request per stdin line, ``{"argv": [...], "stdout":
path, "stderr": path, "trace": path or null}``; one JSON reply per
stdout line, ``{"seconds": float, "rc": int, "maxrss_kb": int,
"cpu_seconds": float}``.
With ``--trace`` the server installs the timing wrappers of
``tracer.py`` before it forks, and each child writes its spans to the
request's ``trace`` path.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
import traceback


def _child(cli, tracer, request: dict, report_fd: int) -> None:
    """Run one command with its output redirected; never returns."""
    code = 1
    try:
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
        os.dup2(os.open(request["stdout"], flags, 0o644), 1)
        os.dup2(os.open(request["stderr"], flags, 0o644), 2)
        sys.stdin = open(os.devnull, encoding="utf-8")
        if tracer is not None:
            tracer.start()
        start = time.perf_counter()
        try:
            code = cli.main(request["argv"])
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # A crash is a result to report, not a reason to lose the timing.
            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - start
        sys.stdout.flush()
        if tracer is not None:
            tracer.stop()
            tracer.write(request["trace"], seconds)
        report = json.dumps({"seconds": seconds}).encode()
        while report:
            report = report[os.write(report_fd, report):]
    except BaseException:
        traceback.print_exc()
        code = 1
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code if isinstance(code, int) else 1)


def serve(trace: bool) -> None:
    from nordlid import cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.calibrate()
    # Children start from the imported modules without copying their pages
    # when the collector walks them.
    gc.freeze()
    for line in sys.stdin:
        request = json.loads(line)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            _child(cli, tracer, request, write_fd)
        os.close(write_fd)
        with os.fdopen(read_fd, "r", encoding="utf-8") as fh:
            report = fh.read()
        _, status, usage = os.wait4(pid, 0)
        reply = json.loads(report) if report else {"seconds": None}
        reply["rc"] = os.waitstatus_to_exitcode(status)
        reply["maxrss_kb"] = usage.ru_maxrss
        reply["cpu_seconds"] = usage.ru_utime + usage.ru_stime
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve(trace="--trace" in sys.argv[1:])
