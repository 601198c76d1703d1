"""Outside-in sweep benchmark for floodbench.

    python3 perfbench/run.py --workload grid128 --seed 3 --trace 0

Run from the root of a source checkout. A run makes samples while the
next one is expected to end within ``--seconds``, cycling through every
speckle draw of ``workloads.DRAWS`` from draw seed modulo DRAWS, and at
least one per draw; the metrics weigh the draws alike, so every run
measures the same work. A sample builds the workload's synthetic scene
and sweep plan (see workloads.py), then makes a cold pass (empty out dir
and cache) and one or more warm passes on the same cache. Each pass is a
fresh ``floodbench sweep`` process, as a user reruns the CLI; this
matters because the mapping tile-fit cache lives in the process. Every
sample checks the outputs:

* each manifest has one row per configuration of the plan;
* every warm manifest equals the cold one as a multiset once ``wall_ms``
  is left out (the rule of acceptance criterion 9);
* the multiset's digest equals the one recorded in digests.json for the
  sample's speckle draw. The digest leaves out ``config_id`` and writes the
  work directory as ``<work>``, as both hold the checkout's path.

The host's speed for interpreter-bound code swings by up to 1.8x within
seconds (a shared machine), far more than the changes the benchmark must
resolve. So while a pass runs, the benchmark's own process times a small
fixed kernel every PROBE_GAP_S seconds (small numpy calls from a Python
loop, as in floodbench's per-pixel and per-config code), and every time
of a pass below is scaled by PROBE_REF_S over the kernel's median time
while the pass ran: it reads as on a host where the kernel takes
PROBE_REF_S. The probe keeps the second core about a tenth busy; its
median did not differ between the three workloads by more than its
run-to-run noise. The unscaled times are on the detail line.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics:

  setup_s             launch of a pass process until ``sweep`` is entered:
                      interpreter start, imports and plan load; the median
                      over every pass of the run
  cold_configs_per_s  configs / wall time in ``sweep`` of the cold pass
  warm_configs_per_s  the same for the warm passes (their median)
  peak_rss_mb         the larger max RSS (wait4) of a sample's passes
  out_mb              bytes under the out dir after a sample's warm pass
  ok_frac             manifest rows with status ok / rows attempted, that
                      is 1 - failed_frac; a crashed pass or a failed check
                      fails every row of its sample. Method failures such
                      as local_threshold's "no bimodal tiles" count

Each of the last five is the mean over the draws of the draw's median
over its samples (configs per second: configs over that mean time), so
that every run weighs the draws alike.

With ``--trace 1`` the run makes four samples on the seed's draw, each a
cold and a warm pass, in the order untraced, traced, traced, untraced,
and reports the per-layer metrics of ``tracer.LAYER_METRICS`` for each
pass of the first traced sample (``cold.*``, ``warm.*``) plus
``synth.generate_s``; ``*.trace.overhead_s`` is the mean of the two
traced minus untraced pass walls, an order that cancels a steady drift of
the machine's speed. Per-layer times are not scaled. The line before the
result holds the environment, every pass's values and the check
outcomes. 1 MB is 10^6 bytes.
"""
import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

RUN_LIMIT_S = 165.0      # passes still running then are killed
PASSES = ("cold", "warm")
PROBE_ROWS = 200         # speed probe kernel: windows of 25 values
PROBE_GAP_S = 0.05       # sleep between two probes
PROBE_REF_S = 0.005      # about its time on a 2-core VM beside a pass

END_TO_END = {
    "setup_s": "s",
    "cold_configs_per_s": "1/s",
    "warm_configs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "out_mb": "MB",
    "ok_frac": "ratio",
}


class Pass:
    """Outcome of one sweep process: exit code, wall time and max RSS seen
    from outside, the marks sweep_pass.py wrote, and the speed probes
    taken while it ran."""

    def __init__(self, name: str, code: int, wall_s: float, rss_bytes: int,
                 marks: dict, launch: float, spans: str | None,
                 probes: list):
        self.name = name
        self.code = code
        self.wall_s = wall_s
        self.rss_bytes = rss_bytes
        self.marks = marks
        self.spans = spans
        self.probes = probes  # (start, seconds) of each speed probe
        enter = marks.get("sweep_enter")
        self.setup_s = enter - launch if enter is not None else None
        self.probe_s = statistics.median(t for _, t in probes)
        # turns a time of this pass into one on the reference host
        self.scale = PROBE_REF_S / self.probe_s

    @property
    def ok(self) -> bool:
        return self.code == 0 and self.sweep_s is not None

    @property
    def sweep_s(self) -> float | None:
        """Wall time in ``sweep``: from plan loaded to manifest written."""
        enter, exit_ = (self.marks.get(k) for k in ("sweep_enter",
                                                     "sweep_exit"))
        return None if enter is None or exit_ is None else exit_ - enter

    def report(self) -> dict:
        report = {"name": self.name, "code": self.code, "wall_s": self.wall_s,
                  "setup_s": self.setup_s, "sweep_s": self.sweep_s,
                  "probes": len(self.probes), "probe_s": self.probe_s,
                  "rss_mb": self.rss_bytes / 1e6}
        if self.marks.get("unwrapped"):
            report["unwrapped_targets"] = self.marks["unwrapped"]
        return report


def read_manifest(out_dir: str):
    path = os.path.join(out_dir, "manifest.csv")
    if not os.path.exists(path):
        return None
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def manifest_multiset(rows) -> Counter:
    return Counter(tuple(sorted((k, v) for k, v in row.items()
                                if k != "wall_ms")) for row in rows)


def multiset_digest(multiset: Counter, workdir: str) -> str:
    """A digest of the rows that holds wherever the checkout is."""
    lines = sorted(json.dumps([(k, v.replace(workdir, "<work>"))
                               for k, v in row if k != "config_id"])
                   for row in multiset.elements())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:32]


def tree_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


_PROBE_ROWS = None


def probe_s() -> float:
    """Time one round of the speed probe: PROBE_ROWS windows of 25 values,
    each sorted and searched with small numpy calls."""
    global _PROBE_ROWS
    import numpy as np
    if _PROBE_ROWS is None:
        _PROBE_ROWS = np.random.default_rng(0).random((PROBE_ROWS, 25))
    start = time.perf_counter()
    for row in _PROBE_ROWS:
        good = row[~np.isnan(row)]
        csum = np.concatenate([[0.0], np.cumsum(np.sort(good))])
        float(np.abs(csum - good.mean()).min())
    return time.perf_counter() - start


class Bench:
    """Builds the inputs and launches the passes of one run of one
    workload."""

    def __init__(self, workload, workdir: str, deadline: float,
                 digests: list | None):
        self.workload = workload
        self.digests = digests  # manifest digest of each draw; None: skip
        self.workdir = workdir
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        self.plan = os.path.join(workdir, "plan.cfg")
        self.out_dir = os.path.join(workdir, "out")
        self.deadline = deadline
        env = dict(os.environ)
        env.pop("FLOODBENCH_CACHE_DIR", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p)
        self.env = env

    def launch(self, name: str, spans: str | None = None) -> Pass:
        """Run one pass process to its end, probing the host's speed while
        it runs; kill it at the deadline."""
        marks_path = os.path.join(self.workdir, name + ".marks.json")
        if os.path.exists(marks_path):
            os.unlink(marks_path)
        cmd = [sys.executable, os.path.join(HERE, "sweep_pass.py"),
               self.plan, self.out_dir, marks_path]
        if spans:
            cmd += ["--spans", spans]
        with open(os.path.join(self.workdir, name + ".stderr"), "w") as err:
            launch = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            probes = []
            try:
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    now = time.monotonic()
                    if now > self.deadline:
                        proc.kill()
                    probes.append((now, probe_s()))
                    time.sleep(PROBE_GAP_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        marks = {}
        if os.path.exists(marks_path):
            with open(marks_path) as fh:
                marks = json.load(fh)
        # ru_maxrss is in KiB on Linux
        return Pass(name, proc.returncode, end - launch,
                    usage.ru_maxrss * 1024, marks, launch, spans,
                    probes or [(end, probe_s())])

    def check(self, passes: list, manifests: list, digest: str | None,
              expected: str | None) -> list:
        """The output checks of one sample; an empty list when all hold.
        ``digest`` is that of the cold manifest."""
        configs = self.workload.configs
        problems = []
        for p, rows in zip(passes, manifests):
            if p.code != 0:
                problems.append("%s pass exited with %d" % (p.name, p.code))
            elif p.sweep_s is None:
                problems.append("%s pass never ran sweep" % p.name)
            elif rows is None:
                problems.append("%s pass wrote no manifest" % p.name)
            elif len(rows) != configs:
                problems.append("%s manifest has %d rows, the plan %d"
                                % (p.name, len(rows), configs))
        if problems:
            return problems
        cold = manifest_multiset(manifests[0])
        for p, rows in zip(passes[1:], manifests[1:]):
            if manifest_multiset(rows) != cold:
                problems.append("%s manifest differs from the cold one"
                                % p.name)
        if expected is not None and digest != expected:
            problems.append("manifest digest %s, recorded %s"
                            % (digest, expected))
        return problems

    def sample(self, tag: str, draw: int, traced: bool = False,
               warm_passes: int = 1) -> dict:
        """Build the scene of speckle draw ``draw``, then a cold pass and
        ``warm_passes`` warm passes on its cache, and the output checks."""
        from workloads import build
        t0 = time.monotonic()
        build(self.workload, draw, self.workdir)
        generate_s = time.monotonic() - t0
        passes, manifests = [], []
        for name in ["cold"] + ["warm%d" % (i + 1)
                                for i in range(warm_passes)]:
            spans = os.path.join(self.workdir, "%s-%s.spans.jsonl"
                                 % (tag, name)) if traced else None
            passes.append(self.launch("%s-%s" % (tag, name), spans=spans))
            manifests.append(read_manifest(self.out_dir)
                             if passes[-1].code == 0 else None)
        out_bytes = tree_bytes(self.out_dir)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        digest = None if manifests[0] is None else multiset_digest(
            manifest_multiset(manifests[0]), self.workdir)
        problems = self.check(passes, manifests, digest,
                              self.digests[draw] if self.digests else None)
        rows = len(passes) * self.workload.configs
        failed_rows = rows if problems else sum(
            row["status"] == "failed" for manifest in manifests
            for row in manifest)
        return {"tag": tag, "draw": draw, "generate_s": generate_s,
                "rows": rows, "failed_rows": failed_rows, "digest": digest,
                "problems": problems, "passes": passes,
                "peak_rss_mb": max(p.rss_bytes for p in passes) / 1e6,
                "out_mb": out_bytes / 1e6}

    def measure(self, seconds: float, draws: list) -> tuple:
        """Samples on the draws in the order of ``draws``, over and over,
        while the next is expected to end within ``seconds`` and at least
        one per draw; the end-to-end metrics and the samples."""
        end = min(time.monotonic() + seconds, self.deadline)
        samples = []
        while True:
            start = time.monotonic()
            samples.append(self.sample("sample%d" % len(samples),
                                       draws[len(samples) % len(draws)],
                                       warm_passes=self.workload.warm_passes))
            now = time.monotonic()
            if len(samples) >= len(draws) and now + (now - start) > end:
                break
        def per_draw(value) -> float:
            # the mean over the draws of each draw's median, so that every
            # run weighs the draws alike
            return statistics.fmean(_median(
                value(s) for s in samples if s["draw"] == draw)
                for draw in draws)

        def configs_per_s(first: int, last: int) -> float:
            # a sample's median over its passes first..last
            sweep_s = per_draw(lambda s: None if s["problems"] else
                               statistics.median(
                                   p.sweep_s * p.scale
                                   for p in s["passes"][first:last]))
            return self.workload.configs / sweep_s if sweep_s else 0.0

        metrics = {
            "setup_s": _median(p.setup_s * p.scale for s in samples
                               for p in s["passes"]
                               if p.setup_s is not None),
            "cold_configs_per_s": configs_per_s(0, 1),
            "warm_configs_per_s": configs_per_s(1, None),
            "peak_rss_mb": per_draw(lambda s: s["peak_rss_mb"]),
            "out_mb": per_draw(lambda s: s["out_mb"]),
            "ok_frac": per_draw(lambda s: 1 - s["failed_rows"] / s["rows"]),
        }
        return metrics, samples

    def trace(self, draw: int) -> tuple:
        """Untraced, traced, traced and untraced samples on draw ``draw``,
        each a cold and a warm pass; the per-layer metrics and the
        samples."""
        from tracer import layer_metrics, read_spans
        samples = [self.sample(tag, draw, traced=tag.startswith("traced"))
                   for tag in ("untraced0", "traced0", "traced1",
                               "untraced1")]
        metrics = {}
        for i, name in enumerate(PASSES):
            walls = [s["passes"][i].wall_s for s in samples]
            overhead_s = (walls[1] - walls[0] + walls[2] - walls[3]) / 2
            p = samples[1]["passes"][i]
            spans = read_spans(p.spans) if os.path.exists(p.spans) else []
            values = layer_metrics(spans, p.marks.get("import_s", 0.0),
                                   self.workload.jobs, overhead_s)
            for key, value in values.items():
                metrics["%s.%s" % (name, key)] = value
        metrics["synth.generate_s"] = _median(s["generate_s"]
                                              for s in samples)
        return metrics, samples


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int, workloads: dict) -> dict:
    import numpy
    import scipy
    return {"commit": git_commit(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "seed": seed,
            "workloads": {w.name: {"configs": w.configs, "jobs": w.jobs}
                          for w in workloads.values()}}


def _sample_report(sample: dict) -> dict:
    report = dict(sample)
    report["passes"] = [p.report() for p in sample["passes"]]
    return report


def _terminate(signum, frame):
    # unwinds through Bench.launch, which kills and reaps its pass
    sys.exit(128 + signum)


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="the speckle draw a run starts at, seed modulo "
                        "workloads.DRAWS; draw 0 is the README scene")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "floodbench", "__init__.py")):
        print("perfbench: no floodbench sources under %s" % SRC,
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    sys.path.insert(0, SRC)
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    draws = [(args.seed + i) % workloads.DRAWS
             for i in range(workloads.DRAWS)]
    bench = Bench(workload, os.path.join(WORK, workload.name),
                  started + RUN_LIMIT_S,
                  workloads.recorded_digests()[workload.name])
    if args.trace:
        from tracer import LAYER_METRICS
        metrics, samples = bench.trace(draws[0])
        units = {"%s.%s" % (name, key): unit for name in PASSES
                 for key, unit in LAYER_METRICS.items()}
        units["synth.generate_s"] = "s"
    else:
        metrics, samples = bench.measure(args.seconds, draws)
        units = END_TO_END
    rows = sum(s["rows"] for s in samples)
    failed = sum(s["rows"] for s in samples if s["problems"])
    print(json.dumps({"perfbench": {
        "workload": workload.name, "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(args.seed, workloads.WORKLOADS),
        "failed_frac": sum(s["failed_rows"] for s in samples) / rows,
        "samples": [_sample_report(s) for s in samples]}}))
    print(json.dumps({"correct": failed == 0, "attempted": rows,
                      "failed": failed,
                      "metrics": {name: {"value": metrics[name],
                                         "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
