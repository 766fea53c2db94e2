"""Traced CLI process: ``child.py SPANS_FILE OP_ID <deltagreen args...>``.

Runs ``deltagreen.cli.main`` with the tracer installed and writes the spans
of the one operation to SPANS_FILE.  Run it with ``-X importtime`` so the
parent can read the CLI's import cost from stderr.
"""

import sys

from tracer import Tracer, save

import deltagreen.cli  # noqa: E402  (imported after the stdlib-only tracer on purpose)


def main() -> int:
    spans_file, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    try:
        with tracer, tracer.op_scope(op_id):
            return deltagreen.cli.main(argv)
    finally:
        # written even when the CLI crashes, so the parent always finds it
        save(tracer.export(), spans_file)


if __name__ == "__main__":
    sys.exit(main())
