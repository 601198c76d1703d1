"""One ``floodbench sweep`` pass in a fresh process, as a user runs it.

Usage: python3 sweep_pass.py PLAN OUT_DIR MARKS_JSON [--spans SPANS_JSONL]

The pass calls ``floodbench.cli.main(["sweep", ...])``. Untraced, the only
change to the program is a probe on the ``sweep`` name that
``floodbench.cli`` calls, which records when the sweep is entered and
when it returns. With
``--spans`` the layer calls are traced and their spans written as JSONL
when the pass ends. MARKS_JSON receives the ``time.monotonic`` values at
sweep entry and return (comparable across processes on one machine), the
time taken by ``import floodbench.cli`` and the trace targets the program
lacks.
"""
import argparse
import json
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("out_dir")
    parser.add_argument("marks")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    before_import = time.monotonic()
    import floodbench.cli as cli
    marks = {"import_s": time.monotonic() - before_import, "unwrapped": []}
    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        marks["unwrapped"] = tracer.install()

    sweep = cli.sweep

    def sweep_probe(plan):
        marks["sweep_enter"] = time.monotonic()
        result = sweep(plan)
        marks["sweep_exit"] = time.monotonic()
        return result

    cli.sweep = sweep_probe
    code = cli.main(["sweep", "--plan", args.plan, "--out-dir", args.out_dir])
    if tracer is not None:
        tracer.dump(args.spans)
    with open(args.marks, "w") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
