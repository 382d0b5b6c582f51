"""One fracplate CLI invocation in a fresh process, measured from inside.

    python3 child.py RESULT.json [--trace] -- <fracplate argv...>

With no argv after ``--`` the process only imports the package, which is the
set-up cost every CLI call pays.  The result file receives the import time,
the wall time of ``fracplate.cli.main``, its exit code, the process's peak
resident memory and, with ``--trace``, the per-layer metrics of the call.
``fracplate`` must resolve to the checkout's ``src/`` tree, which the parent
puts first on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def main(argv: list[str]) -> int:
    result_path = argv[0]
    trace = "--trace" in argv[1 : argv.index("--")]
    cli_argv = argv[argv.index("--") + 1 :]

    start = time.perf_counter()
    from fracplate import cli

    import_s = time.perf_counter() - start
    expected = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(cli.__file__).startswith(expected + os.sep):
        raise SystemExit(f"fracplate imported from {cli.__file__}, not {expected}")

    record = {"import_s": import_s}
    if cli_argv:
        recorder = None
        if trace:
            from spans import Recorder

            recorder = Recorder()
            recorder.install()
        start = time.perf_counter()
        try:
            rc = cli.main(cli_argv)
        except SystemExit as exc:  # usage errors exit through argparse
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, as for a CLI user
            traceback.print_exc()
            rc = 1
        record["op_s"] = time.perf_counter() - start
        record["rc"] = int(rc or 0)
        if recorder is not None:
            record["layers"] = recorder.metrics()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
