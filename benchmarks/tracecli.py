"""Run one hurwitztau CLI command in this process under the tracer.

The traced form of a cli_cold op: spans cover the package import, the CLI
layer (``cli.main``) and the traced functions beneath it, and are written
to SPANS_PATH for the worker to graft under its ``cli.process`` span.

Usage: python tracecli.py SPANS_PATH CLI_ARGS...
"""

import sys

from tracing import Tracer, install


def main(argv):
    path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.span("import.hurwitztau"):
        import hurwitztau.cli
    install(tracer)
    with tracer.span("cli.main"):
        code = hurwitztau.cli.main(cli_args)
    tracer.end_op()
    tracer.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
