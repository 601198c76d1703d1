"""Record each workload's manifest digest for every speckle draw.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Run from the root of a source checkout after a change that is meant to
alter the sweep's outputs. For each draw it builds the scene and runs one
sample (a cold and a warm pass) with every check but the digest, then
writes the cold manifest's digest to digests.json, which run.py checks
every sample against. Workloads not named keep their digests.
"""
import json
import os
import shutil
import sys
import time

import run


def main(argv) -> int:
    sys.path.insert(0, run.SRC)
    import workloads

    path = os.path.join(run.HERE, "digests.json")
    digests = {}
    if os.path.exists(path):
        with open(path) as fh:
            digests = json.load(fh)
    for name in argv or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        found = []
        for draw in range(workloads.DRAWS):
            bench = run.Bench(workload, os.path.join(run.WORK, name),
                              time.monotonic() + run.RUN_LIMIT_S, None)
            sample = bench.sample("record", draw)
            if sample["problems"]:
                print("%s draw %d: %s" % (name, draw, sample["problems"]),
                      file=sys.stderr)
                return 1
            found.append(sample["digest"])
            print(name, draw, sample["digest"], flush=True)
        digests[name] = found
    shutil.rmtree(run.WORK, ignore_errors=True)
    with open(path, "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
