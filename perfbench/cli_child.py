"""Run one genbal CLI command with tracing on and write its spans to a file.

Usage: python cli_child.py SPANS_OUT <genbal cli arguments...>

The parent benchmark process merges the spans under the span of this
invocation, so the time before ``cli.main`` starts (interpreter start-up
and imports) stays visible as uncovered invocation time.
"""

import sys

import genbal.cli

import tracing


def main():
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = genbal.cli.main(argv)
    tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
