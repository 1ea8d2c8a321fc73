"""Start child processes for the benchmark and report their cost.

    python3 -S perfbench/spawner.py

Reads one JSON request a line on stdin, `{"argv": [...], "stderr": path
or null}`, runs it to completion with stdout (and stderr, unless a path
is given) on /dev/null, and answers on stdout with one JSON line:
`{"wall": seconds, "user": seconds, "sys": seconds, "maxrss": KiB,
"status": exit code}`, with the child's user and system CPU time.  It
exits at end of input.

A child's peak RSS as `wait4` reports it includes the memory of the
process it was forked from, so the benchmark, which grows while it
holds a run's outputs, does not start the children itself: this small
process does, and its own few MiB stay below any child's peak.
"""

import json
import os
import sys
import time


def run(argv, stderr_path):
    null = os.open(os.devnull, os.O_RDWR)
    err = (os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
           if stderr_path else null)
    try:
        actions = [(os.POSIX_SPAWN_DUP2, null, 0),
                   (os.POSIX_SPAWN_DUP2, null, 1),
                   (os.POSIX_SPAWN_DUP2, err, 2)]
        start = time.perf_counter()
        pid = os.posix_spawnp(argv[0], argv, os.environ,
                              file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        os.close(null)
        if err != null:
            os.close(err)
    return {'wall': wall, 'user': usage.ru_utime, 'sys': usage.ru_stime,
            'maxrss': usage.ru_maxrss,
            'status': os.waitstatus_to_exitcode(status)}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request['argv'], request.get('stderr'))
        sys.stdout.write(json.dumps(reply) + '\n')
        sys.stdout.flush()


if __name__ == '__main__':
    main()
