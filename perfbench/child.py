"""Run one spillnet command in a fresh process and record what it cost.

    python3 child.py SPAWNED SRC MODE RECORD [CLI ARGS...]

SPAWNED is the parent's ``time.perf_counter()`` just before it started this
process (CLOCK_MONOTONIC, shared by all processes on Linux), so ``setup_s``
covers interpreter start-up and the import of ``spillnet.cli`` from SRC.
MODE is ``setup`` (import only), ``run`` or ``trace`` (run with spans, see
spans.py). The record is written as JSON to RECORD.
"""

import sys
import time

spawned = float(sys.argv[1])
src, mode, record_path = sys.argv[2:5]
sys.path.insert(0, src)
import spillnet  # noqa: E402
import spillnet.cli  # noqa: E402

setup_s = time.perf_counter() - spawned

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

record = {"setup_s": setup_s, "version": spillnet.__version__, "module": spillnet.__file__}
if mode != "setup":
    main = spillnet.cli.main
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        main = spans.install(tracer)
    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        rc = main(sys.argv[5:])
    record["wall_s"] = time.perf_counter() - start
    record["rc"] = rc
    record["stdout"] = captured.getvalue()
    # ru_maxrss is in KiB on Linux
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        record["spans"] = tracer.spans
with open(record_path, "w") as fh:
    json.dump(record, fh)
