"""gvc benchmark: time to verdict on stress models and on the preset CLI batch.

    python3 bench/run.py --workload sl3-full --seed 1 --seconds 20 --trace 0

Run from the repository root; gvc is imported from `src/`.  One process,
one thread, closed loop: the next unit (one verification, or one pass of
the preset batch) starts when the previous one has ended, and a new one
starts only while it is expected to finish within `--seconds`, or while
fewer than the workload's `min_units` have run.

Every time reported as an end-to-end metric is in reference seconds (see
refclock.py): wall time scaled to a fixed host speed, because the shared
machines this runs on change speed by up to 2x within seconds.  The raw
wall seconds are in the detail line.

Workloads (the inputs are fixed; the seed only relabels generators and
shuffles their declaration order, see stress_models.relabel):
  sl3-full     `full` on sl(3) in 4D: the largest even model, the only
               kind that runs the even-only Noether checks in bicomplex;
               integer constants.
  sl21-full    `full` on sl(2|1) in 4D: odd fields drive the kernel's sign
               paths and BRST work; constants of +-1/2, no bicomplex
               Noether-current checks.
  presets-cli  `gvc.cli.main([cmd, "--model", f, "--deterministic"])` for
               the 7 pipelines and `full` on abelian, su2 and osp12: many
               small models, so fixed per-model or per-call costs show.

Every answer is compared with a known result that gvc did not produce in
this run: the stress reports must pass the expected checks, the preset
`full` output must equal tests/golden/<preset>.txt, and each single
pipeline's check lines must appear in that golden file.

With `--trace 0` the last stdout line carries the end-to-end metrics;
with `--trace 1` one untraced and one traced unit run and it carries the
per-layer metrics of the traced unit (see tracer.py), whose spans are
written to .bench_out/; their times are wall seconds, and include the
reference clock's few per cent.  The line before it holds the environment,
failed_ratio, the tail percentile and per-check seconds.
"""

import argparse
import collections
import contextlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import stress_models
from refclock import RefClock
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "tests", "golden")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 5
TAIL_BEYOND = 10
# verdict_tail_s is taken over the first TAIL_UNITS passes of presets-cli,
# so every commit reports the same percentile of the same invocations.
TAIL_UNITS = 4
PRESETS = ("abelian", "su2", "osp12")
COMMANDS = stress_models.PIPELINES + ("full",)
EVEN_CHECKS = (
    "algebra-structure", "invariant-form", "euler-lagrange-two-path",
    "parameter-symmetry", "noether-identities", "current-conservation",
    "superpotential", "koszul-tate", "gauge-symmetry", "brst-nilpotency",
    "master-equation", "utiyama-strength-dependence",
    "utiyama-field-independence", "utiyama-contraction",
)
GRADED_CHECKS = (
    "algebra-structure", "invariant-form", "euler-lagrange-two-path",
    "noether-identities", "koszul-tate", "gauge-symmetry", "brst-nilpotency",
    "master-equation", "utiyama-strength-dependence",
    "utiyama-field-independence",
)


# One verification: wall clock at its start and end, checks reported,
# checks or invocations attempted, and how many of those differ from the
# known answer.
Sample = collections.namedtuple("Sample", "t0 t1 checks attempted failed")


class StressWorkload:
    """One `full` verification of a generated stress model per unit."""

    labels = ("full",)
    min_units = 2

    def __init__(self, filename, header, checks):
        self.filename = filename
        self.expected = ["model %s" % header]
        self.expected += ["check %s | status pass | nonzero 0 | first -" % c for c in checks]
        self.expected.append("result pass")
        self.per_check = {}

    def prepare(self, seed):
        path = os.path.join(HERE, self.filename)
        with open(path, encoding="utf-8") as handle:
            committed = handle.read()
        if committed != stress_models.STRESS_MODELS[self.filename]():
            raise SystemExit("bench: %s differs from its generator; run "
                             "python3 bench/stress_models.py" % path)
        self.text = stress_models.relabel(committed, seed)

    def setup(self, gvc):
        gvc.modelfile.spec_model(gvc.modelfile.parse_model(self.text))

    def unit(self, gvc):
        attempted = len(self.expected) - 2
        t0 = time.perf_counter()
        try:
            report = gvc.cli.run(gvc.modelfile.parse_model(self.text), "full")
            report.render()
        except Exception:
            traceback.print_exc()
            return [Sample(t0, time.perf_counter(), 0, attempted, attempted)]
        t1 = time.perf_counter()
        got = report.lines(with_time=False)
        failed = min(attempted, sum(g != w for g, w in
                                    itertools.zip_longest(got, self.expected)))
        for r in report.results:
            self.per_check.setdefault(r.name, []).append(r.seconds)
        return [Sample(t0, t1, len(report.results), attempted, failed)]

    def details(self):
        return {"per_check_wall_s": {name: statistics.median(v)
                                for name, v in self.per_check.items()}}


class PresetWorkload:
    """Each of the 8 commands on each preset through `gvc.cli.main` per unit."""

    labels = tuple("%s %s" % (p, c) for p in PRESETS for c in COMMANDS)
    min_units = TAIL_UNITS

    def prepare(self, seed):
        os.makedirs(os.path.join(OUT, "models"), exist_ok=True)
        self.paths, self.texts, self.golden = {}, {}, {}
        for preset in PRESETS:
            with open(os.path.join(GOLDEN, preset + ".model"), encoding="utf-8") as handle:
                self.texts[preset] = stress_models.relabel(handle.read(), seed)
            with open(os.path.join(GOLDEN, preset + ".txt"), encoding="utf-8") as handle:
                self.golden[preset] = handle.read()
            path = os.path.join(OUT, "models", "%s-seed%d.model" % (preset, seed))
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(self.texts[preset])
            self.paths[preset] = path

    def setup(self, gvc):
        for preset in PRESETS:
            gvc.modelfile.spec_model(gvc.modelfile.parse_model(self.texts[preset]))

    def correct(self, preset, command, code, out):
        golden = self.golden[preset]
        if command == "full":
            return code == 0 and out == golden
        lines = out.splitlines()
        want = golden.splitlines()
        checks = [ln for ln in lines if ln.startswith("check ")]
        return (code == 0 and bool(checks) and lines[0] == want[0]
                and lines[-1] == "result pass" and all(ln in want for ln in checks))

    def unit(self, gvc):
        samples = []
        for preset in PRESETS:
            for command in COMMANDS:
                buf = io.StringIO()
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(buf):
                        code = gvc.cli.main([command, "--model", self.paths[preset],
                                             "--deterministic"])
                except Exception:
                    traceback.print_exc()
                    code = None
                t1 = time.perf_counter()
                out = buf.getvalue()
                ok = code is not None and self.correct(preset, command, code, out)
                checks = sum(1 for ln in out.splitlines() if ln.startswith("check "))
                samples.append(Sample(t0, t1, checks, 1, 0 if ok else 1))
        return samples

    def details(self):
        return {}


WORKLOADS = {
    "sl3-full": lambda: StressWorkload("sl3.model", "even dim 4 metric +---", EVEN_CHECKS),
    "sl21-full": lambda: StressWorkload("sl21.model", "graded dim 4 metric +---",
                                        GRADED_CHECKS),
    "presets-cli": PresetWorkload,
}


def import_gvc():
    """Fresh import of gvc and the modules the benchmark calls."""
    for name in [n for n in sys.modules if n == "gvc" or n.startswith("gvc.")]:
        del sys.modules[name]
    gvc = importlib.import_module("gvc")
    importlib.import_module("gvc.modelfile")
    importlib.import_module("gvc.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(gvc.__file__))) != SRC:
        raise SystemExit("bench: imported gvc from %s, not from %s" % (gvc.__file__, SRC))
    return gvc


def measure_setup(workload):
    """Wall spans of SETUP_REPEATS fresh imports plus parse_model + spec_model."""
    spans = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        gvc = import_gvc()
        workload.setup(gvc)
        spans.append((t0, time.perf_counter()))
    return spans, gvc


def closed_loop(workload, gvc, seconds):
    """Run units back to back while the next one should end within
    `seconds`, and at least `workload.min_units` of them; returns the
    samples of each unit and the wall span of the loop."""
    units = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        units.append(workload.unit(gvc))
        now = time.perf_counter()
        if len(units) >= workload.min_units and now - start + (now - t0) > seconds:
            return units, (start, now)


def verdict_s(seconds, kinds):
    """Median over the `kinds` distinct verifications of a unit of each
    one's median over the units (`seconds` runs unit by unit).  Every unit
    repeats the same verifications, so one slow unit cannot move it."""
    return statistics.median(statistics.median(seconds[k::kinds]) for k in range(kinds))


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it;
    the maximum when there are too few samples for that."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], {"percentile": 100.0, "samples": n, "beyond": 0}
    k = n - TAIL_BEYOND - 1
    return ordered[k], {"percentile": 100.0 * (k + 1) / n, "samples": n,
                        "beyond": TAIL_BEYOND}


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment():
    package = os.path.join(SRC, "gvc")
    lines = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                lines += sum(1 for _ in handle)
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_gvc_lines": lines}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "gvc")):
        print("bench: no gvc package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]()
    workload.prepare(args.seed)
    env = environment()
    clock = RefClock()
    clock.start()
    try:
        setup_spans, gvc = measure_setup(workload)
        if args.trace:
            untraced = workload.unit(gvc)
            details = workload.details()
            tracer = Tracer()
            tracer.install()
            try:
                traced = workload.unit(gvc)
            finally:
                tracer.uninstall()
            units = [untraced, traced]
        else:
            units, loop = closed_loop(workload, gvc, args.seconds)
            details = workload.details()
    finally:
        clock.stop()

    kinds = len(workload.labels)
    samples = [s for unit in units for s in unit]
    seconds = [clock.seconds(s.t0, s.t1) for s in samples]
    setup_times = [clock.seconds(t0, t1) for t0, t1 in setup_spans]
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "setup_samples_s": setup_times,
              "wall_samples_s": [s.t1 - s.t0 for s in samples],
              "ref_samples": len(clock.starts),
              "ref_kernel_median_s": statistics.median(clock.durations)}
    detail.update(details)
    if kinds > 1:
        detail["per_verification_s"] = {
            label: statistics.median(seconds[k::kinds])
            for k, label in enumerate(workload.labels)}
    if args.trace:
        untraced_s = verdict_s(seconds[:kinds], kinds)
        traced_s = verdict_s(seconds[kinds:], kinds)
        metrics = tracer.metrics()
        metrics["trace.verdict_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, "trace-%s-seed%d.jsonl" % (args.workload, args.seed))
        tracer.write_spans(spans)
        detail.update(untraced_verdict_s=untraced_s, spans=len(tracer.spans),
                      spans_file=os.path.relpath(spans, ROOT))
    else:
        tail_s, tail_info = tail(seconds[:TAIL_UNITS * kinds])
        metrics = {
            "verdict_s": {"value": verdict_s(seconds, kinds), "unit": "s"},
            "verdict_tail_s": {"value": tail_s, "unit": "s"},
            "checks_per_s": {"value": sum(s.checks for s in samples) / clock.seconds(*loop),
                             "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0, "unit": "MiB"},
        }
        detail.update(verdict_tail=tail_info, wall_s=loop[1] - loop[0],
                      verdict_samples_s=seconds)
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    detail.update(failed_ratio=failed / attempted, verifications=len(samples))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
