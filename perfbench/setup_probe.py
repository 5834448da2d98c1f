"""Do in a fresh interpreter what `pdwell sweep` does before its first row.

Usage: python3 setup_probe.py CONFIG [--env]

Imports the command-line module (numpy, scipy, pdwell), loads the config,
builds and validates the model and derives its constants, then prints one
JSON line holding the CLOCK_MONOTONIC time at which the first row could
start. The caller subtracts the time it spawned this process. With --env the
line also holds the environment record and the grid size N the automatic
rule picks for each h of the config.
"""

import json
import sys
import time


def main(argv):
    import pdwell.cli  # noqa: F401  (the console script's import)
    from pdwell.harness import build_model, load_config
    from pdwell.model import derived_constants, validate_model

    cfg = load_config(argv[0])
    model = build_model(cfg)
    if not validate_model(model).passed:
        print("model assumptions failed", file=sys.stderr)
        return 2
    derived_constants(model)
    ready = time.monotonic()

    out = {"ready": ready}
    if "--env" in argv[1:]:
        from envinfo import environment
        out["env"] = environment()
        out["N"] = [cfg.points_for(h) for h in cfg.h_list]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
