"""Run ``colebrook.cli.main`` with span tracing: the traced CLI call.

Usage: python cli_child.py SPANS_OUT CLI_ARG...

colebrook must be importable (PYTHONPATH). Writes the spans as JSON lines
to SPANS_OUT and exits with the CLI's exit code.
"""

import sys

from tracer import Tracer


def main():
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("import.colebrook.cli"):
        from colebrook import cli, core, evaluation, kernels, schemes
    with tracer.patched((core, kernels, schemes, evaluation, cli)):
        code = cli.main(argv)
    tracer.write(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
