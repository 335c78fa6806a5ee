"""Run one certquad command with every layer traced.

    python3 bench/cli_launcher.py bound --f exp --a 0 --b 1 --rule simpson --q 1

Behaves like ``python -m certquad`` (same stdout and exit code) and writes
the recorder's totals as one JSON line at the end of stderr, for the
traced run of the cli_mix workload to merge.
"""

import json
import sys

import certquad.cli
import tracing


def main(argv) -> int:
    rec = tracing.Recorder()
    restore = tracing.instrument(rec)
    try:
        with rec.operation():
            code = certquad.cli.main(argv)
    finally:
        restore()
    sys.stdout.flush()
    print(json.dumps(rec.snapshot()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
