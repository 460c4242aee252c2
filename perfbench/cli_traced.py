"""Run ``chowtool.cli`` with the benchmark's layer spans installed.

Usage: python perfbench/cli_traced.py <chowtool arguments>

Used by the traced run of the cli-cold workload.  The CLI's stdout and exit
code are unchanged; the span totals go to stderr, on a last line that starts
with the trace mark.
"""

import json
import sys

from chowtool import cli
from tracer import TRACE_MARK, Tracer


def main():
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write("\n" + TRACE_MARK + json.dumps(tracer.totals()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
