#!/usr/bin/env python3
"""Per-file line coverage of the pvsim library from a --coverage build.

    coverage_report.py BUILD_DIR [REPORT.json]

BUILD_DIR was configured with -DCMAKE_CXX_FLAGS=--coverage and has
run the workloads to measure (each run adds to the .gcda counters).
For every src/**/*.cc the library compiled, gcov (shipped with g++)
reports the executable lines and the share that ran; a unit that
never ran has no counters and reports 0%. Prints one line per file,
the total, and the files at 0%, and writes the same as JSON when a
report path is given. It measures; it never fails on a low number.
"""

import json
import os
import re
import subprocess
import sys

FILE = re.compile(r"^File '(.*)'$")
LINES = re.compile(r"^Lines executed:([0-9.]+)% of (\d+)$")


def gcov_lines(gcno):
    """{source path: (executed, total)} for one object's gcov run."""
    out = subprocess.run(
        ["gcov", "-n", "-o", os.path.dirname(gcno), gcno],
        cwd=os.path.dirname(gcno), capture_output=True, text=True,
        check=True).stdout
    found, current = {}, None
    for line in out.splitlines():
        m = FILE.match(line)
        if m:
            current = m.group(1)
            continue
        m = LINES.match(line)
        if m and current:
            total = int(m.group(2))
            found[current] = (round(float(m.group(1)) * total / 100),
                              total)
            current = None
    return found


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__)
        return 2
    # gcov runs in each object's directory, so the paths it is given
    # must not be relative to this one.
    objs = os.path.join(os.path.abspath(sys.argv[1]), "CMakeFiles",
                        "pvsim.dir")
    files = {}
    for root, _, names in os.walk(objs):
        for n in sorted(names):
            if not n.endswith(".cc.gcno"):
                continue
            # src/x/y.cc: the object tree mirrors the source tree.
            unit = os.path.relpath(os.path.join(root, n[:-len(".gcno")]),
                                   objs)
            for src, counts in gcov_lines(os.path.join(root, n)).items():
                # The object's own unit, not the headers it inlines.
                if src.endswith("/" + unit):
                    files[unit] = counts
    if not files:
        print(f"coverage_report: no .gcno files under {objs}")
        return 1
    width = max(len(f) for f in files)
    for f, (done, total) in sorted(files.items()):
        pct = 100.0 * done / total if total else 0.0
        print(f"{f:<{width}}  {pct:6.1f}%  {done:5d} / {total:5d}")
    done = sum(d for d, _ in files.values())
    total = sum(t for _, t in files.values())
    print(f"{'total':<{width}}  {100.0 * done / total:6.1f}%  "
          f"{done:5d} / {total:5d}")
    zero = sorted(f for f, (d, t) in files.items() if t and not d)
    print(f"files at 0%: {', '.join(zero) if zero else 'none'}")
    if len(sys.argv) == 3:
        with open(sys.argv[2], "w") as out:
            json.dump({"files": {f: {"executed": d, "lines": t}
                                 for f, (d, t) in sorted(files.items())},
                       "executed": done, "lines": total,
                       "zero": zero}, out, indent=2)
            out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
