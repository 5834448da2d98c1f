"""Run one `pdwell sweep` in this process with every layer traced.

Usage: python3 traced_sweep.py CONFIG SPANS_JSON

Times the import of the command-line module, installs the tracer, runs the
sweep exactly as `pdwell sweep CONFIG` does, then writes the spans, the
import time and the process environment to SPANS_JSON. Exits with the
sweep's exit code.
"""

import json
import sys
import time

from envinfo import environment
from tracing import Tracer


def main(config, spans_path):
    t0 = time.perf_counter()
    import pdwell.cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    code = pdwell.cli.main(["sweep", config])
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans,
                   "env": environment()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
