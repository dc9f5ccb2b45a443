"""Seeded benchmark of `mwns`: exact solve, pivot blocker, terminal reduction.

    python3 bench/run.py --workload random_solve --seed 1 --seconds 35 --trace 0

Runs one workload in this process, one operation at a time (a closed loop),
in whole passes over the workload's instances until `--seconds` are spent,
and checks every output against the benchmark's own checker. Times are
given at the reference speed of calibrate.py. The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics of a traced run with `--trace 1`. A fuller record goes to
`bench/out/`. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tr
from calibrate import REFERENCE_S, reference
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 10  # set-up probes per run
CALIBRATE_EVERY = 0.2  # seconds of operations between two reference timings


def import_mwns():
    """The `mwns` built from this checkout's sources, never an installed one."""
    if not (SRC / "mwns" / "__init__.py").is_file():
        sys.exit(f"bench/run.py: no mwns sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mwns = importlib.import_module("mwns")
    if Path(mwns.__file__).resolve().parent != SRC / "mwns":
        sys.exit(f"bench/run.py: imported mwns from {mwns.__file__}, not from {SRC}")
    for layer in ("instance_io", "solver", "blocker", "reducer"):
        importlib.import_module(f"mwns.{layer}")
    return mwns


def setup_probe(texts: list[str]):
    """A callable timing one fresh interpreter that imports `mwns` and
    parses `texts`, from its start to its exit."""
    payload = json.dumps(texts)
    expected = {"instances": len(texts),
                "edges": sum(int(t.split("\n", 1)[0].split()[3]) for t in texts)}

    def probe() -> float:
        before = reference()
        start = time.perf_counter()
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], input=payload,
                              capture_output=True, text=True, timeout=120, check=True)
        took = time.perf_counter() - start
        after = reference()
        if json.loads(done.stdout) != expected:
            raise RuntimeError(f"set-up probe parsed {done.stdout.strip()}, expected {expected}")
        return at_reference_speed(took, before, after)

    return probe


def at_reference_speed(took: float, before: float, after: float) -> float:
    """`took` seconds, scaled by the reference task's times `before` and
    `after` it to what they would be while that task takes `REFERENCE_S`."""
    return took * 2 * REFERENCE_S / (before + after)


def pass_seconds(passes: list[list[float]]) -> float:
    """One pass: the sum over operations of each operation's median time
    across the passes. With times at reference speed the median holds still;
    the least time would pick out an operation next to a reference timing
    that a pause made slow."""
    return sum(statistics.median(op) for op in zip(*passes))


class Runner:
    """Whole passes over the workload's instances, with failures counted."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed: list[str] = []
        self.wrong: list[str] = []
        self.outputs: list | None = None  # of the first pass; None where it failed
        self._prints: list | None = None
        self.raw: list[list[float]] = []  # wall seconds of each op, per pass
        self.refs: list[list[float]] = []  # reference timings, per pass

    def one_pass(self) -> list[float]:
        """Each operation once, in order; the seconds each took, at the
        reference speed measured around it (see calibrate.py)."""
        times, outs = [], []
        refs, before = [reference()], []  # reference timings; the one before each op
        last = time.perf_counter()
        for i in range(len(self.w.instances)):
            self.attempted += 1
            before.append(len(refs) - 1)
            start = time.perf_counter()
            try:
                outs.append(self.w.run(i))
            except Exception:  # a failing operation is counted, not fatal
                outs.append(None)
                self.failed.append(f"instance {i}: {traceback.format_exc(limit=3)}")
            times.append(time.perf_counter() - start)
            if time.perf_counter() - last >= CALIBRATE_EVERY:
                refs.append(reference())
                last = time.perf_counter()
        if before[-1] == len(refs) - 1:
            refs.append(reference())
        self._verify(outs)
        self.raw.append(times)
        self.refs.append(refs)
        return [at_reference_speed(t, refs[j], refs[j + 1]) for t, j in zip(times, before)]

    def _verify(self, outs: list) -> None:
        """Check the first pass in full; later passes must repeat it."""
        prints = [None if o is None else self.w.fingerprint(o) for o in outs]
        if self.outputs is None:
            self.outputs, self._prints = outs, prints
            for i, out in enumerate(outs):
                if out is not None and (why := self.w.check(i, out)):
                    self.wrong.append(f"instance {i}: {why}")
        elif prints != self._prints:
            self.wrong.append("a later pass gave other outputs than the first")

    def passes(self, seconds: float, step) -> list:
        """Call `step` until the next call would end after `seconds`."""
        results, spent = [], []
        start = time.perf_counter()
        while not results or time.perf_counter() - start + statistics.mean(spent) <= seconds:
            t0 = time.perf_counter()
            results.append(step())
            spent.append(time.perf_counter() - t0)
        return results


def traced_run(runner: Runner, seconds: float, load: dict, tracer: tr.Tracer
               ) -> tuple[dict, dict]:
    """Alternate plain and traced passes; per-layer metrics plus overhead."""
    plain, traced, per_pass = [], [], []

    def step():
        plain.append(runner.one_pass())
        before = tracer.snapshot()
        tracer.install()
        try:
            traced.append(runner.one_pass())
        finally:
            tracer.uninstall()
        per_pass.append(tr.difference(tracer.snapshot(), before))

    runner.passes(seconds, step)
    metrics = tr.layer_metrics(load, per_pass)
    overhead = pass_seconds(traced) / pass_seconds(plain) - 1
    metrics["trace.overhead_pct"] = (100 * overhead, "%")
    detail = {"plain_pass_s": plain, "traced_pass_s": traced, "load": load,
              "passes": per_pass}
    return metrics, detail


def declared_metrics(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    mwns = import_mwns()
    workload = WORKLOADS[args.workload](args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "instances": len(workload.specs)}
    if args.trace:
        tracer = tr.Tracer()
        tracer.install()  # parse_instance during the load is traced too
        try:
            workload.load(mwns)
        finally:
            tracer.uninstall()
        load = tracer.snapshot()
        runner = Runner(workload)
        metrics, detail = traced_run(runner, args.seconds, load, tracer)
        record["trace_detail"] = detail
    else:
        probe = setup_probe([s.text() for s in workload.specs])
        workload.load(mwns)
        runner = Runner(workload)
        setup, last = [], [0.0]

        def step():
            # about ten set-ups, spread over the whole run between passes
            if time.perf_counter() - last[0] >= args.seconds / SETUPS:
                setup.append(probe())
                last[0] = time.perf_counter()
            return runner.one_pass()

        times = runner.passes(args.seconds, step)
        record.update(pass_times=times, raw_pass_times=runner.raw, reference_times=runner.refs,
                      setup_times=setup, raw_pass_s=pass_seconds(runner.raw))
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "pass_s": (pass_seconds(times), "s"),
            "result_size": (workload.size([o for o in runner.outputs if o is not None]), "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    names = declared_metrics(args.trace)
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json")
    result = {
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": len(runner.failed),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    }
    record.update(result, wrong=runner.wrong, failures=runner.failed)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for line in runner.wrong + runner.failed:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
