"""The reproduction's benchmark: paper regeneration and exact grading.

Run from the repository root::

    python3 perfbench/run.py                       # every workload, in turn
    python3 perfbench/run.py --workload exact_lp --seed 3 --seconds 15
    python3 perfbench/run.py --workload paper_cold --trace 1

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``paper_cold``: Tables 1-6 and Figures 1-13 from an empty artifact cache;
* ``paper_warm``: the same from a cache filled during set-up;
* ``exact_lp``: exact gate-level grade of the whole LP universe;
* ``exact_pool``: a seeded fault sample graded through the process pool.

Runs repeat until ``--seconds`` have passed (at least one run); every
run's output is checked after its timed window.  With ``--trace 0`` the
last line of standard output is a JSON object carrying the end-to-end
metrics; with ``--trace 1`` rounds of untraced, traced and (where it
applies) collector-on runs are interleaved, at least two rounds, and the
JSON carries the per-layer metrics instead.  Exit status is 0 when a
result was printed; outside a full checkout it is 2.
"""

import time

# setup_s counts from here: importing the pipeline is part of what a user
# waits for before the first result.
_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from catalog import ALL  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_layout() -> None:
    """Refuse to run outside a full checkout, or when ``BENCHMARK.json``
    and the metric catalogue disagree."""
    from catalog import END_TO_END, PER_LAYER

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no program sources under {ROOT / 'src'}")
    if not (ROOT / "benchmarks" / "results").is_dir():
        fail(f"no committed results under {ROOT / 'benchmarks'}")
    try:
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    for key, metrics in (("end_to_end", END_TO_END),
                         ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"])
                  for m in doc.get(key, [])]
        if listed != [(m.name, m.unit, m.better) for m in metrics]:
            fail(f"BENCHMARK.json {key} does not match perfbench/catalog.py")


def clean_environment() -> None:
    """The program reads ``REPRO_FAST``, ``REPRO_CACHE_DIR``,
    ``REPRO_JOBS`` and friends; none may leak into a measured run."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def timed(wl, tracer, around):
    """One run: the untimed reset, then the timed operation in ``around``."""
    wl.prepare()
    with around:
        t0 = time.perf_counter()
        out = wl.run(tracer)
        return out, time.perf_counter() - t0


def set_up(wl, tracer):
    """Median wall time of the workload's set-up repetitions; the last one
    is traced when the workload keeps a layer in set-up."""
    times = []
    for rep in range(wl.setup_reps):
        traced = wl.trace_setup and rep == wl.setup_reps - 1
        with tracer.bucket(fixed=True) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            wl.setup(tracer)
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def samples(label, walls):
    return (f"  {label} ({len(walls)}): "
            + " ".join(f"{w:.3f}" for w in walls))


def measure(wl, seconds: float, import_s: float):
    """Untraced runs: the end-to-end metrics."""
    from probes import PeakMemory, Tracer

    off = Tracer(False)
    setup_s = import_s + set_up(wl, off)
    outs, walls, peaks, errored = [], [], [], 0
    t0 = time.perf_counter()
    while not outs or time.perf_counter() - t0 < seconds:
        memory = PeakMemory()
        try:
            out, wall = timed(wl, off, memory)
        except Exception:
            traceback.print_exc()
            errored += 1
            if errored > 3:
                fail("runs keep raising")
            continue
        outs.append(out)
        walls.append(wall)
        peaks.append(memory.peak_mb)
    wl.reference(off)
    attempted = wl.operations() * (len(outs) + errored)
    failed = (wl.operations() * errored
              + sum(wl.check(out) for out in outs))
    run_s = statistics.median(walls)
    metrics = {
        "setup_s": setup_s,
        "run_s": run_s,
        "faults_per_s": wl.faults(outs) / run_s,
        "peak_rss_mb": statistics.median(peaks),
    }
    return metrics, attempted, failed, outs, [samples("run_s samples", walls)]


def measure_traced(wl, seconds: float, import_s: float):
    """Interleaved untraced, traced and collector-on runs: the per-layer
    metrics, the tracing overhead and the telemetry overhead."""
    from catalog import PER_LAYER
    from probes import Tracer, layer_probes
    from repro.telemetry import telemetry_session

    tracer, off = Tracer(True), Tracer(False)

    @contextlib.contextmanager
    def probed():
        with tracer.bucket(), layer_probes(tracer):
            yield

    set_up(wl, tracer)
    modes = {"off": contextlib.nullcontext, "traced": probed}
    if wl.telemetry_probe:
        modes["telemetry"] = telemetry_session
    order = list(modes)
    walls = {mode: [] for mode in order}
    outs, rounds = [], 0
    t0 = time.perf_counter()
    # Overheads are ratios of medians over rounds; two rounds at least,
    # in rotated order, so neither side always runs first.
    while rounds < 2 or time.perf_counter() - t0 < seconds:
        for mode in order[rounds % len(order):] + order[:rounds % len(order)]:
            out, wall = timed(wl, tracer if mode == "traced" else off,
                              modes[mode]())
            if mode == "traced":
                wall -= tracer.excluded_s
            outs.append(out)
            walls[mode].append(wall)
        rounds += 1
    with tracer.bucket(fixed=True):
        wl.reference(tracer)
    failed = sum(wl.check(out) for out in outs)
    attempted = wl.operations() * len(outs)

    def overhead(mode: str) -> float:
        if mode not in walls:
            return 0.0
        return (statistics.median(walls[mode])
                / statistics.median(walls["off"]) - 1.0)

    graded = tracer.value("gates.faults_graded")
    pool_s = tracer.value("parallel.pool_s")
    derived = {
        "gates.useful_frac": wl.faults(outs) / graded if graded else 0.0,
        "parallel.speedup": (tracer.value("parallel.inproc_s") / pool_s
                             if pool_s else 0.0),
        "telemetry.overhead_frac": overhead("telemetry"),
        "bench.trace_overhead_frac": overhead("traced"),
    }
    metrics = {m.name: derived.get(m.name, tracer.value(m.name))
               for m in PER_LAYER}
    lines = [samples(f"{mode} run_s samples", w) for mode, w in walls.items()]
    return metrics, attempted, failed, outs, lines


def report(name, seed, trace, metrics, attempted, failed, outs, wl, lines):
    from catalog import END_TO_END, FAIL_FRAC, PER_LAYER, UNITS

    seed_note = (" (ignored: paper artifacts use the paper's fixed seeds)"
                 if name.startswith("paper") else "")
    print(f"workload {name}  seed {seed}{seed_note}  "
          f"{'traced' if trace else 'untraced'}")
    for m in PER_LAYER if trace else END_TO_END:
        line = f"  {m.name:28s} {metrics[m.name]:14.6g} {m.unit}"
        if trace:
            line += (f"  (should move: {m.note})" if name in m.workloads
                     else "  (not exercised)")
        print(line)
    print(f"  {FAIL_FRAC.name:28s} {failed / attempted:14.6g} "
          f"{FAIL_FRAC.unit}  ({failed} of {attempted} operations)")
    for line in lines + wl.notes(outs):
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in ALL:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=ALL + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    check_layout()
    if args.workload == "all":
        return run_all(args)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())[
            "run_seconds"]

    clean_environment()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        fail(f"imported repro from {repro.__file__}, not from {ROOT}")
    import_s = time.perf_counter() - _T_START

    work_dir = ROOT / ".perfbench-work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        measured = (measure_traced if args.trace else measure)(
            wl, seconds, import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    metrics, attempted, failed, outs, lines = measured
    report(args.workload, args.seed, args.trace, metrics, attempted, failed,
           outs, wl, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
