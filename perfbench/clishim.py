"""Traced stand-in for ``python -m graphspectra.cli``.

    python3 perfbench/clishim.py SPANS_FILE JOB_ID CLI_ARGS...

Times the fresh import of ``graphspectra.cli``, wraps the traced
functions, runs ``graphspectra.cli.main`` on CLI_ARGS and writes the
spans and the import time to SPANS_FILE.  Exits with the CLI's status.
"""

import time

STARTED = time.perf_counter()

import graphspectra.cli  # noqa: E402

IMPORT_S = time.perf_counter() - STARTED

import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    spans_file, job, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    rec = spans.Recorder()
    spans.install(rec)
    rec.job = job
    index = rec.open("job")
    try:
        return graphspectra.cli.main(args)
    finally:
        rec.close(index)
        with open(spans_file, "w") as handle:
            json.dump({"import_s": IMPORT_S, "spans": rec.spans}, handle)


if __name__ == "__main__":
    sys.exit(main())
