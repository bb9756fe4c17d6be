"""The benchmark's one command.

    python3 perfbench/run.py --workload wave-grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
of the checkout this file sits in, never from elsewhere. ``--trace 0``
prints every end-to-end metric, ``--trace 1`` every per-layer metric (see
``perfbench/README.md``). The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the outcome fingerprint, which
is reported but not gated. Everything, spans included, is also written
to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``. A timed run
scales its timings by the host's speed, which a block of work timed
inside the run measures (see ``perfbench/calibration.py``); the unscaled
values are on the info line.
"""

import time

# setup_s starts here: the import of the program, building the scenario
# list and opening the store all come after this line
_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: fresh processes that repeat the set-up, half before and half after
#: the timed passes; setup_s is the median of theirs and this process's
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time the set-up in a fresh process and print it
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program source under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"run.py: imported repro from {repro.__file__}, not {src}")


def probe_setup(args) -> tuple:
    """``(setup_s, slowdown)`` of one fresh process running the same set-up."""
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--setup-probe",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    probe = json.loads(completed.stdout.splitlines()[-1])
    return probe["setup_s"], probe["slowdown"]


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_source()
    import bench
    import calibration
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        prepared = bench.prepare(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - _START
        try:
            if args.trace:
                result = bench.trace(prepared, args.seconds)
            else:
                # the host's speed right after the set-up scales it
                setup = [(setup_s, calibration.slowdown_now())]
                if args.setup_probe:
                    print(json.dumps({"setup_s": setup_s, "slowdown": setup[0][1]}))
                    return 0
                half = SETUP_PROBES // 2
                setup += [probe_setup(args) for _ in range(half)]
                result = bench.measure(prepared, args.seconds)
                setup += [probe_setup(args) for _ in range(SETUP_PROBES - half)]
                calibrated = result.pop("calibration")
                result["metrics"] = bench.end_to_end(result, setup, calibrated.slowdown)
                unscaled = [(seconds, 1.0) for seconds, _ in setup]
                raw = bench.end_to_end(result, unscaled, lambda start, end: 1.0)
                result["raw_metrics"] = {name: value for name, (value, _) in raw.items()}
                result["host_slowdown"] = calibrated.slowdown(-float("inf"), float("inf"))
                result["setup_samples"] = setup
        finally:
            prepared.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = result["tally"]
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": result["passes"],
        "failed_fraction": tally.failed_fraction,
        "errors": tally.errors,
    }
    for key in ("fingerprint", "run_samples", "host_slowdown", "raw_metrics"):
        if key in result:
            info[key] = result[key]
    detail = dict(info, metrics=metrics)
    if "setup_samples" in result:
        detail["setup_samples"] = result["setup_samples"]
    if "tracer" in result:
        detail["trace_detail"] = result["tracer"].to_dict()
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1) + "\n")

    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
