"""``localix`` command line with tracing on, for the traced cli run.

Usage: python3 bench/traced_cli.py SUMMARY.json [localix arguments...]

Installs the spans of ``spans.py``, runs ``localix.cli.main`` and
writes the span summary to SUMMARY.json before exiting with the
command's exit code.
"""

import json
import sys

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.install()
    from localix import cli

    try:
        code = cli.main(argv)
    finally:
        spans.count_caches(tracer)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
