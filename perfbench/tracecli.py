"""Run one rmarith CLI command under the tracer and save its aggregates.

    python3 perfbench/tracecli.py OUT.json <rmarith arguments>

Used by the traced cli_session run, whose operations are CLI processes.
"""

import json
import sys

import tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import rmarith.cli

    t = tracer.Tracer()
    t.install()
    code = rmarith.cli.main(argv)
    with open(out, "w") as fh:
        json.dump(t.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
