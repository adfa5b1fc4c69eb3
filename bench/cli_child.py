"""Traced stand-in for ``python -m eventspec.cli``.

Usage: python cli_child.py SPANS_FILE <eventspec CLI arguments...>

Times ``import eventspec.cli``, wraps the layers, runs the CLI's ``main``
and writes the spans to SPANS_FILE. Exits with the CLI's exit code.
"""

import time

FIRST = time.perf_counter()

import sys  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    start = time.perf_counter()
    import eventspec.cli
    tracer.add(spans.CLI_IMPORT, start, time.perf_counter(), None)
    spans.install(tracer)
    code = eventspec.cli.main(argv)
    tracer.dump(out_path, FIRST)
    return code


if __name__ == "__main__":
    sys.exit(main())
