"""vckit benchmark: one workload per run, one client in a closed loop.

    python3 benchmark/run.py --workload stark-prove --seed 1 --seconds 25 --trace 0

Run from the root of a vckit checkout; the library is imported from its
``src/`` directory.  The run sets up the workload, then runs whole rounds
until ``--seconds`` have passed, repeating the set-up in bursts between
rounds (``setup_s`` is the median over bursts of their fastest set-up).  It prints one line per workload-specific figure,
then, as the last line, a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A traced run alternates untraced and
traced rounds and writes its spans to ``benchmark/traces/<workload>.json``.
"""

import argparse
import json
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Set-up runs in bursts: one burst repeats the set-up until it has run for
# SETUP_BURST_SECONDS, and its fastest set-up is one sample of setup_s (see
# fastest_ms).  A set-up of a few ms falls wholly in a free or a contended
# stretch of the shared core, and the median of single set-ups jumps
# between the two speeds; a burst of half a second nearly always holds a
# free stretch.  A set-up longer than that is a burst of its own.  The
# first burst runs before the rounds, which use its last set-up.  Later
# bursts run between rounds whenever set-up has taken less than SETUP_SHARE
# of the run so far, and the run ends with at least SETUP_MIN_REPEATS.
SETUP_BURST_SECONDS = 0.5
SETUP_SHARE = 0.1
SETUP_MIN_REPEATS = 3


class Tally:
    """Operation counts, output checks and timing samples of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = defaultdict(list)

    def op(self, ok):
        self.attempted += 1
        self.failed += not ok

    def check(self, ok, what):
        if not ok and what not in self.problems:
            self.problems.append(what)
            print(f"check failed: {what}", file=sys.stderr)

    def sample(self, key, seconds):
        self.samples[key].append(seconds)


def import_vckit():
    if not (SRC / "vckit" / "__init__.py").is_file():
        sys.exit(f"error: no vckit sources at {SRC}; run from a vckit checkout")
    sys.path.insert(0, str(SRC))
    import vckit
    if Path(vckit.__file__).resolve().parent != SRC / "vckit":
        sys.exit(f"error: imported vckit from {vckit.__file__}, not {SRC}")
    return vckit


def median_ms(samples):
    return statistics.median(samples) * 1e3


def fastest_ms(samples):
    """The fastest sample of the run, in ms.

    The machine shares its cores with other tenants.  An operation runs at
    one speed while its core is free and up to 1.8 times slower while it is
    contended, and the share of contended time swings within seconds.
    Medians and means follow that share; the fastest sample is the
    operation's cost on a free core, which a run of many samples meets in
    almost every stretch of a few seconds."""
    return min(samples) * 1e3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    vckit = import_vckit()
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    field = vckit.Field(vckit.DEFAULT_MODULUS)
    tracer = tracing.Tracer(field) if args.trace else None

    tally = Tally()
    bursts = []  # the set-up times of each burst

    def set_up():
        times = []
        while sum(times) < SETUP_BURST_SECONDS:
            if tracer is not None and tracer.has_room():
                workload, seconds = tracer.run_phase(
                    "setup", cls, args.seed, field, tally)
            else:
                t0 = perf_counter()
                workload = cls(args.seed, field, tally)
                seconds = perf_counter() - t0
            times.append(seconds)
        bursts.append(times)
        return workload

    workload = set_up()
    round_seconds = {False: [], True: []}
    start = perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1 and tracer.has_room()
        if traced:
            _, seconds = tracer.run_phase("round", workload.round, i)
        else:
            t0 = perf_counter()
            workload.round(i)
            seconds = perf_counter() - t0
        round_seconds[traced].append(seconds)
        i += 1
        while (sum(map(sum, bursts))
               < SETUP_SHARE * (perf_counter() - start)):
            set_up()
        if perf_counter() - start >= args.seconds and (
                tracer is None or all(round_seconds.values())):
            break
    while len(bursts) < SETUP_MIN_REPEATS:
        set_up()

    samples = tally.samples
    print(f"{cls.name} seed={args.seed} rounds={i} "
          f"setups={sum(map(len, bursts))} set-up bursts={len(bursts)} "
          f"attempted={tally.attempted} failed={tally.failed}")
    details = [(name, statistics.median(samples[key]) * factor, unit,
                len(samples[key]))
               for name, key, factor, unit in cls.details]
    for name, value, unit, n in details + workload.extra_details():
        print(f"  {name} = {value:.6g} {unit} (n={n})")

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(map(min, bursts)), "s"),
            "peak_rss_mib": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MiB"),
            "op_ms_min": (fastest_ms(samples[cls.op_key]), "ms"),
            "verify_ms_min": (fastest_ms(samples["verify"]), "ms"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        metrics = tracer.layer_metrics()
        name, unit = tracing.OVERHEAD_METRIC
        overhead = (median_ms(round_seconds[True])
                    - median_ms(round_seconds[False]))
        metrics[name] = {"value": overhead, "unit": unit}
        print(f"  traced rounds={len(round_seconds[True])} "
              f"untraced rounds={len(round_seconds[False])} "
              f"overhead={overhead:.6g} ms/round")
        tracer.write(HERE / "traces" / f"{cls.name}.json",
                     {"workload": cls.name, "seed": args.seed})

    print(json.dumps({"correct": not tally.problems,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
