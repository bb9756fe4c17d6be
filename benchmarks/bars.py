"""The runner of the CI bar scripts: one option set, one JSON schema.

A *bar* is a threshold on one measured number. Each ``bench_*.py``
script in this directory declares its ``SCALES``, a ``measure(sizes,
tmp_dir)`` function that returns its measurements' result payloads,
and its ``BARS``, then hands them to :func:`main`::

    python benchmarks/bench_<name>.py [--scale smoke|full] [--output PATH]

runs the measurements at the chosen scale, writes one ``repro.bench/1``
envelope (by default ``BENCH_<name>.json``), prints one line per bar
(its value against its limit, pass or fail) and the output path, and
exits 1 if any bar fails.

The envelope's keys are ``schema``, ``bench`` (the script's stem),
``scale``, ``timestamp``, ``python``, ``cpu_count``, ``results`` (the
payloads, each carrying its ``name``) and ``bars`` (one entry per bar:
``name``, ``value``, ``op``, ``limit`` and ``holds``).
"""

import argparse
import json
import operator
import os
import platform
import tempfile
import time
from dataclasses import dataclass

SCHEMA = "repro.bench/1"

_OPS = {">=": operator.ge, "<=": operator.le}


@dataclass(frozen=True)
class Bar:
    """``value <op> limit`` on one number of one measurement's payload.

    ``path`` names the number and the bar: the measurement's ``name``,
    then the key path inside its payload, dot-separated, with list items
    by index (``"bianchi_agreement.rows.0.throughput_rel_err"``). ``op``
    is ``">="`` or ``"<="``. On a host with fewer than ``min_cpus`` CPUs
    the bar does not apply: it is recorded with ``holds`` null and
    printed as a note.
    """

    path: str
    op: str
    limit: float
    min_cpus: int = 0

    def value(self, results):
        """The number this bar reads from a script's result payloads."""
        name, *keys = self.path.split(".")
        node = {result["name"]: result for result in results}[name]
        for key in keys:
            node = node[int(key)] if isinstance(node, list) else node[key]
        return node

    def evaluate(self, results, cpus):
        """This bar's entry in the envelope's ``bars``."""
        value = self.value(results)
        holds = _OPS[self.op](value, self.limit)
        return {
            "name": self.path,
            "value": value,
            "op": self.op,
            "limit": self.limit,
            "holds": holds if cpus >= self.min_cpus else None,
        }


def main(bench, scales, measure, bars, argv=None):
    """A bar script's command line; returns its exit status."""
    parser = argparse.ArgumentParser(
        description=f"Run the {bench} measurements and check their bars."
    )
    parser.add_argument("--scale", choices=sorted(scales), default="smoke")
    parser.add_argument(
        "--output", default=f"BENCH_{bench.removeprefix('bench_')}.json"
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix=f"repro-{bench}-") as tmp_dir:
        results = measure(scales[args.scale], tmp_dir)
    cpus = os.cpu_count()
    report = {
        "schema": SCHEMA,
        "bench": bench,
        "scale": args.scale,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": platform.python_version(),
        "cpu_count": cpus,
        "results": results,
        "bars": [bar.evaluate(results, cpus or 1) for bar in bars],
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for bar, entry in zip(bars, report["bars"]):
        holds = entry["holds"]
        verdict = "NOTE" if holds is None else "PASS" if holds else "FAIL"
        line = f"{verdict} {bar.path}: {entry['value']:g} {bar.op} {bar.limit:g}"
        if holds is None:
            line += f" does not apply on {cpus} CPU(s); it needs {bar.min_cpus}"
        print(line)
    print(f"wrote {args.output}")
    return 1 if any(entry["holds"] is False for entry in report["bars"]) else 0
