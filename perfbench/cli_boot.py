"""Traced CLI invocation: install the span wrappers, run one command through
``twinsource.cli.main``, and write its spans for the workload driver to merge.

    python cli_boot.py SPANS.npz OP_ID COMMAND [ARGS...]

Exits with the command's exit status.
"""

import sys

import spans


def main() -> int:
    out, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import twinsource.cli as cli

    rec = spans.Recorder().install()
    rec.op_id = op_id
    rc = cli.main(argv)
    rec.disable()
    rec.dump(out, missing=rec.missing)
    return rc


if __name__ == "__main__":
    sys.exit(main())
