"""Run one knotlab CLI command with the benchmark's layer spans installed.

    python perfbench/launch.py <knotlab cli arguments...>

The parent sets PERFBENCH_T0 to its perf_counter() just before spawning, so
the root span "cli.process" covers interpreter start and import as well as
cli.main.  perf_counter is CLOCK_MONOTONIC on Linux, shared by all processes.
The command's report goes to stdout unchanged; the spans go to stderr as one
"PERFBENCH_SPANS <json>" line after the command has finished.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from layers import Tracer  # noqa: E402


def main():
    t0 = float(os.environ["PERFBENCH_T0"])
    from knotlab import cli, diagram

    tracer = Tracer()
    tracer.install()
    root = ["cli.process", t0, 0.0, -1, None, None]
    tracer.spans.append(root)
    tracer._stack.append(0)
    code = 1
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as e:
        code = e.code
    finally:
        root[2] = time.perf_counter()
        tracer._stack.pop()
        info = diagram._res.cache_info()
        root[5] = {"diagram.resolve.hits": info.hits, "diagram.resolve.misses": info.misses}
        sys.stdout.flush()
        print("PERFBENCH_SPANS " + json.dumps(tracer.spans), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
