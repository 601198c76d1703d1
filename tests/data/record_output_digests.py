"""Record the digests checked by tests/test_output_digests.py.

    PYTHONPATH=src python3 tests/data/record_output_digests.py

Run from the root of a source checkout after a change that is meant to
alter a stage output, and say in CHANGES.md which outputs changed and why.
"""
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from test_output_digests import DIGESTS_PATH, compute_digests  # noqa: E402


def main() -> int:
    digests = compute_digests()
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    failed = sum("failed" in v for v in digests.values()
                 if isinstance(v, dict))
    print("%d outputs recorded (%d configs failed) in %s"
          % (len(digests), failed, DIGESTS_PATH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
