"""``loopsim serve`` with the layer wrappers installed (traced runs only).

    python3 perfbench/serve_shim.py SPOOL serve [serve flags...]

Runs the same ``repro.__main__.main`` as ``python -m repro serve`` and,
once the server has drained, writes its spans to ``SPOOL/server.json``
for the benchmark to merge with the clients' spans.
"""

import os
import sys
import time


def main() -> int:
    spool, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import repro  # noqa: F401  (timed: the server's import layer)
    import_s = time.perf_counter() - start

    import instrument
    from spans import Tracer

    tracer = Tracer(adopt=False)
    instrument.install(tracer)
    from repro.__main__ import main as loopsim

    try:
        return loopsim(argv)
    finally:
        tracer.dump(os.path.join(spool, "server.json"), tracer.records,
                    meta={"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
