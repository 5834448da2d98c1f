"""Self-test of the benchmark's correctness check and seeded workloads.

Usage: python3 perfbench/selftest.py

The check must accept the reference rows, reject each reference row whose
gap12 is moved by 1e-6 relative, reject a row carrying an error, and reject
rows that break an invariant. Every workload's seeds must draw strictly
decreasing h lists inside the workload's band. Prints each failure and exits
with 1 if there is one.
"""

import copy
import math
import os
import sys

import check
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def load_reference(name):
    with open(os.path.join(HERE, "reference", f"{name}.csv")) as fh:
        return check.parse_sweep(fh.read())


def rejected(rows, w, reference, h, column=None):
    """True when the row at h fails, and names `column` if one is given."""
    for row_h, _, problems in check.check_sweep(rows, w.h_list(DEFAULT_SEED), w.N, reference):
        if row_h == h:
            return bool(problems) and (column is None or
                                       any(p.startswith(column) for p in problems))
    return False


def error_row(h):
    """A row as the harness writes it when the pipeline raised at h."""
    row = {c: math.nan for c in check.COLUMNS}
    row.update(h=h, precision_flag=1.0, error="NumericError: eigensolver failed")
    return row


def failures():
    out = []
    for name, w in WORKLOADS.items():
        ref = load_reference(name)
        hs = w.h_list(DEFAULT_SEED)
        if [r["h"] for r in ref] != list(hs):
            out.append(f"{name}: reference h {[r['h'] for r in ref]} != {list(hs)}")
            continue
        for h, failed, problems in check.check_sweep(ref, hs, w.N, ref):
            if failed or problems:
                out.append(f"{name} h={h}: reference rows rejected: {problems}")
        for i, h in enumerate(hs):
            for sign in (1, -1):
                rows = copy.deepcopy(ref)
                rows[i]["gap12"] *= 1 + sign * 1e-6
                if not rejected(rows, w, ref, h, "gap12"):
                    out.append(f"{name} h={h}: gap12 moved by {sign}e-6 relative passed")
            rows = copy.deepcopy(ref)
            rows[i] = error_row(h)
            results = check.check_sweep(rows, hs, w.N, None)
            if not (results[i][1] and results[i][2]):
                out.append(f"{name} h={h}: a row carrying an error passed")
            stdout = f"flagged: h={h}: NumericError: eigensolver failed\n"
            text = ",".join(check.COLUMNS) + "\n" + ",".join(
                "1" if c == "precision_flag" else repr(h) if c == "h" else "nan"
                for c in check.COLUMNS) + "\n"
            parsed = check.parse_sweep(text, stdout)
            if parsed[0]["error"] != "NumericError: eigensolver failed":
                out.append(f"{name} h={h}: flagged stdout line not attached to its row")
            for column, value in (("parity1", 0.5), ("parity2", 1.0),
                                  ("two_abs_wh", 1.4 * ref[i]["gap12"]),
                                  ("gram_gap", ref[i]["gap12"] * (1 + 1e-5))):
                rows = copy.deepcopy(ref)
                rows[i][column] = value
                if not rejected(rows, w, None, h):
                    out.append(f"{name} h={h}: {column} = {value!r} passed the invariants")
        for seed in range(200):
            drawn = w.h_list(seed)
            lo, hi = w.band
            if (len(drawn) != w.count or any(b >= a for a, b in zip(drawn, drawn[1:]))
                    or not all(lo <= x <= hi for x in drawn)):
                out.append(f"{name} seed {seed}: bad h list {drawn}")
    return out


def main():
    found = failures()
    for line in found:
        print(f"FAIL {line}")
    print(f"checker self-test: {'failed' if found else 'ok'}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
