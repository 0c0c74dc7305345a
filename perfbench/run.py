"""The w52 benchmark: run one workload, check every output, print its metrics.

    python3 perfbench/run.py --workload census|export|verify --seed N \
        --seconds S --trace 0|1

Run it from the root of a w52 source tree; it puts ``src`` on the path of
every w52 process it starts.  Workloads (see README.md for why each one):

  census  ``w52 census --out FILE`` as a fresh process, again and again
  export  ``w52 enumerate pentads --out FILE``, one JSON then one CSV export
  verify  ContextSet.from_words -> analyze -> wa_symbol over a seeded pool

Each run first times fresh ``w52 enumerate points`` processes (``setup_s``).
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates traced and untraced operations and prints the per-layer metrics.
A wrong output stops the run: the last line then says ``"correct": false``
and holds no numbers, and the exit code is 1.  Details of every run go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import stats
from spans import status_mb
from oracle import (
    EXPORT_CSV_SHA256,
    EXPORT_JSON_SHA256,
    MALFORMED,
    NOT_CONTEXTUAL,
    PENTADS,
    VALID,
    Mismatch,
    check_census_csv,
    check_digest,
    sha256,
    spot_check_export,
)

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("census", "export", "verify")
# Set-up processes before and after the workload, so that the median
# samples the machine's speed over the whole run.
SETUP_PROBES = (4, 5)
SPOT_CHECK_RECORDS = 32
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# The console script's call, then a copy of /proc/self/status for the peak
# RSS: a child's wait4 rusage would report this harness's peak instead,
# since Linux carries the parent's high-water mark over fork and exec.
CLI = [sys.executable, "-c", "import os, sys; from w52.cli import main; code = main(); "
       "open(os.environ['PERFBENCH_STATUS'], 'w').write(open('/proc/self/status').read()); "
       "sys.exit(code)"]
PROBE = [sys.executable, str(BENCH / "probe.py")]

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.overhead_s": "s",
    "geometry.space_s": "s",
    "pentads.enumerate_s": "s",
    "pentads.found": "count",
    "pentads.pentagram_s": "s",
    "pentads.config_s": "s",
    "pentads.enumerate_peak_mb": "MB",
    "taxonomy.classify_s": "s",
    "taxonomy.signature_s": "s",
    "taxonomy.check_s": "s",
    "taxonomy.types": "count",
    "export.records_s": "s",
    "export.render_json_s": "s",
    "export.render_csv_s": "s",
    "export.census_csv_s": "s",
    "export.json_bytes": "count",
    "export.csv_bytes": "count",
    "export.records_peak_mb": "MB",
    "contextuality.parse_s": "s",
    "contextuality.analyze_s": "s",
    "contextuality.wa_symbol_s": "s",
    "contextuality.sets": "count",
    "contextuality.valid": "count",
    "contextuality.not_contextual": "count",
    "contextuality.malformed": "count",
    "self.cli_s": "s",
    "self.geometry_s": "s",
    "self.pentads_s": "s",
    "self.taxonomy_s": "s",
    "self.export_s": "s",
    "self.contextuality_s": "s",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
}
# Per-layer metrics that take the largest value over operation kinds; the
# others add up over the kinds of one round.
LARGEST_OVER_KINDS = {"pentads.found", "taxonomy.types", "pentads.enumerate_peak_mb", "export.records_peak_mb"}
# Inclusive span totals reported under their own names.
SPAN_TOTALS = {
    "geometry.space": "geometry.space_s",
    "pentads.enumerate": "pentads.enumerate_s",
    "pentads.pentagram": "pentads.pentagram_s",
    "pentads.config": "pentads.config_s",
    "taxonomy.classify": "taxonomy.classify_s",
    "taxonomy.check": "taxonomy.check_s",
    "export.records": "export.records_s",
    "export.render_json": "export.render_json_s",
    "export.render_csv": "export.render_csv_s",
    "export.census_csv": "export.census_csv_s",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked at all."""


@dataclass
class Outcome:
    wall_s: float
    peak_rss_mb: float
    stdout: str


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Run:
    """One benchmark run: its settings, its scratch directory and its tallies."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool):
        self.root, self.workload, self.seed, self.seconds, self.trace = root, workload, seed, seconds, trace
        self.started = time.perf_counter()
        self.out = BENCH / "out"
        self.work = self.out / f"work-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.status = self.work / "status"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PERFBENCH_STATUS=str(self.status))
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss: list[float] = []  # of the workload's untraced processes

    def spawn(self, argv: list[str], timeout: float = 150.0) -> Outcome | None:
        """Run one w52 process as one operation; None if it failed."""
        self.attempted += 1
        timeout = min(timeout, max(5.0, RUN_LIMIT_S - self.elapsed()))
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        self.status.unlink(missing_ok=True)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(timeout, _kill, (proc.pid,))
            timer.start()
            status = None
            try:
                _, status = os.waitpid(proc.pid, 0)
                wall = time.perf_counter() - start
            finally:
                timer.cancel()
                if status is None:
                    proc.kill()
                    proc.wait()
            proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code == 0 and not self.status.exists():
            code = "no /proc/self/status copy"
        if code != 0:
            reason = "timed out" if code == -signal.SIGKILL else f"exit code {code}"
            stderr = err_path.read_text().strip()[-500:]
            self.failures.append(f"{' '.join(argv[3:])}: {reason}: {stderr}")
            return None
        return Outcome(wall, status_mb(self.status.read_text(), "VmHWM"), out_path.read_text())

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def rounds(self, round_fn) -> None:
        """Start rounds until the run's seconds have gone, unless the next
        one would end past the run's time limit."""
        start = time.perf_counter()
        durations: list[float] = []
        while not durations or time.perf_counter() - start < self.seconds:
            if durations and self.elapsed() + max(durations) > RUN_LIMIT_S - 10:
                return
            t = time.perf_counter()
            round_fn()
            durations.append(time.perf_counter() - t)

    def w52(self, args: list[str], spans: Path | None = None) -> list[str]:
        """argv for ``w52 ARGS``, run through the tracing probe if ``spans``."""
        return (PROBE + ["cli", str(spans), "--"] if spans else CLI) + args


def _expect(outcome: Outcome, stdout: str) -> None:
    if outcome.stdout != stdout:
        raise Mismatch(f"stdout {outcome.stdout!r}, expected {stdout!r}")


def _layers_of_cli_op(outcome: Outcome, spans_path: Path) -> dict[str, float]:
    """Per-layer figures of one traced CLI process; its self times add up to
    its wall time less the benchmark's own census check."""
    report = json.loads(spans_path.read_text())
    layers = report["layers"]
    if report["checks_ok"] is False:
        raise Mismatch("the census fails compare_with_table1 or structural_laws")
    check_s = layers.get("taxonomy.check", {}).get("total", 0.0)
    op_s = outcome.wall_s - check_s
    import_s = layers["cli.import"]["total"]
    covered = sum(end - start for name, start, end in report["top_level"]
                  if name not in ("cli.import", "taxonomy.check"))
    values = {"trace.op_s": op_s, "cli.import_s": import_s, "cli.overhead_s": op_s - covered - import_s,
              "self.cli_s": op_s - covered}
    for name, entry in layers.items():
        if name in SPAN_TOTALS:
            values[SPAN_TOTALS[name]] = entry["total"]
        layer = name.split(".")[0]
        if name not in ("cli.import", "taxonomy.check"):
            key = f"self.{layer}_s"
            values[key] = values.get(key, 0.0) + entry["self"]
    values["taxonomy.signature_s"] = layers.get("taxonomy.signature", {}).get("self", 0.0)
    for span, metric in (("pentads.enumerate", "pentads.enumerate_peak_mb"),
                         ("export.records", "export.records_peak_mb")):
        if span in report["peak_mb"]:
            values[metric] = report["peak_mb"][span]
    if report["pentads_found"] is not None:
        values["pentads.found"] = report["pentads_found"]
    if report["types"] is not None:
        values["taxonomy.types"] = report["types"]
    return values


def _tally(run: Run, samples: dict, layers: dict, kind: str, outcome: Outcome,
           traced_values: dict | None) -> None:
    """File one checked CLI operation under its kind."""
    if traced_values is None:
        samples.setdefault(kind, []).append(outcome.wall_s)
        run.peak_rss.append(outcome.peak_rss_mb)
    else:
        samples.setdefault(f"traced-{kind}", []).append(outcome.wall_s)
        layers.setdefault(kind, []).append(traced_values)


def measure_setup(run: Run, probes: int, walls: list[float], layers: list[dict]) -> None:
    """Fresh ``w52 enumerate points`` processes: wall times, and per-layer
    figures when tracing."""
    for _ in range(probes):
        spans = run.work / "setup-spans.json" if run.trace else None
        outcome = run.spawn(run.w52(["enumerate", "points"], spans))
        if outcome is None:
            continue
        _expect(outcome, "63\n")
        walls.append(outcome.wall_s)
        if spans:
            layers.append(_layers_of_cli_op(outcome, spans))


def census_workload(run: Run, samples: dict, layers: dict) -> None:
    out = run.work / "census.csv"
    spans = run.work / "census-spans.json"

    def op(traced: bool) -> None:
        outcome = run.spawn(run.w52(["census", "--out", str(out)], spans if traced else None))
        if outcome is None:
            return
        _expect(outcome, f"47 types over {PENTADS} pentads -> {out}\n")
        check_census_csv(out)
        out.unlink()
        _tally(run, samples, layers, "census", outcome, _layers_of_cli_op(outcome, spans) if traced else None)

    def one_round() -> None:
        op(False)
        if run.trace:
            op(True)

    run.rounds(one_round)


def export_workload(run: Run, samples: dict, layers: dict) -> None:
    files = {fmt: run.work / f"pentads.{fmt}" for fmt in ("json", "csv")}
    digests = {"json": EXPORT_JSON_SHA256, "csv": EXPORT_CSV_SHA256}
    spot_ids = sorted(run.rng.sample(range(PENTADS), SPOT_CHECK_RECORDS))
    spans = run.work / "export-spans.json"
    spot_checked: list[bool] = []

    def op(fmt: str, traced: bool) -> None:
        path = files[fmt]
        path.unlink(missing_ok=True)
        args = ["enumerate", "pentads", "--format", fmt, "--out", str(path)]
        outcome = run.spawn(run.w52(args, spans if traced else None))
        if outcome is None:
            return
        _expect(outcome, f"{PENTADS}\n")
        check_digest(path, digests[fmt])
        values = None
        if traced:
            values = _layers_of_cli_op(outcome, spans)
            values[f"export.{fmt}_bytes"] = path.stat().st_size
        _tally(run, samples, layers, fmt, outcome, values)

    def one_round() -> None:
        for fmt in ("json", "csv"):
            op(fmt, False)
        if not spot_checked and all(path.exists() for path in files.values()):
            spot_check_export(files["json"], files["csv"], spot_ids)
            spot_checked.append(True)
        for path in files.values():
            path.unlink(missing_ok=True)
        if run.trace:
            for fmt in ("json", "csv"):
                op(fmt, True)

    run.rounds(one_round)


def verify_workload(run: Run, samples: dict, layers: dict) -> dict[str, int]:
    sys.path.insert(0, str(run.root / "src"))  # the pool is built with the checkout's w52
    from inputs import verify_pool

    sets, expected = verify_pool(run.seed)
    in_path, out_path = run.work / "verify-in.json", run.work / "verify-out.json"
    in_path.write_text(json.dumps({"sets": sets}))
    argv = PROBE + ["verify", str(in_path), str(out_path), str(run.seconds), "1" if run.trace else "0"]
    outcome = run.spawn(argv, timeout=run.seconds + 60)
    run.attempted -= 1  # the operations are the sets, counted below
    if outcome is None:
        return {}
    run.peak_rss.append(outcome.peak_rss_mb)
    report = json.loads(out_path.read_text())
    run.attempted += len(report["passes"]) * len(sets)
    run.failures += report["failures"]
    if report["mismatches"]:
        raise Mismatch(f"sets {sorted(set(report['mismatches']))[:10]} changed outcome between passes")
    for i, (got, want) in enumerate(zip(report["results"], expected)):
        if got is not None and got != want:
            raise Mismatch(f"set {i}: program says {got}, dense oracle says {want}")
    samples["set"] = [ns / 1e9 for one_pass in report["latencies_ns"] for ns in one_pass]
    samples["pass-p50"] = [stats.median(one_pass) / 1e9 for one_pass in report["latencies_ns"] if one_pass]
    for p in report["passes"]:
        kind = "traced-pass" if p["traced"] else "pass"
        samples.setdefault(kind, []).append(p["wall_s"])
        if p["traced"]:
            spans_s = p["parse_s"] + p["analyze_s"] + p["wa_symbol_s"]
            layers.setdefault("pass", []).append({
                "contextuality.parse_s": p["parse_s"],
                "contextuality.analyze_s": p["analyze_s"],
                "contextuality.wa_symbol_s": p["wa_symbol_s"],
                "self.contextuality_s": spans_s,
                "self.cli_s": p["wall_s"] - spans_s,
                "trace.op_s": p["wall_s"],
            })
    verdicts = [e[0] for e in expected]
    return {
        "contextuality.sets": len(sets),
        "contextuality.valid": verdicts.count(VALID),
        "contextuality.not_contextual": verdicts.count(NOT_CONTEXTUAL),
        "contextuality.malformed": verdicts.count(MALFORMED),
    }


def end_to_end(run: Run, setup: list[float], samples: dict) -> dict[str, float]:
    kinds = {"census": ["census"], "export": ["json", "csv"], "verify": ["set"]}[run.workload]
    if not setup or not run.peak_rss or any(not samples.get(k) for k in kinds):
        raise SetupError("no successful operation of some kind; nothing to measure")
    ops = sum(len(samples[k]) for k in kinds)
    busy = sum(sum(samples[k]) for k in kinds)
    medians = [stats.median(samples[k]) for k in kinds]
    if run.workload == "verify":
        # A pass takes a fraction of a second, so it sees one speed of a host
        # whose speed can swing by 2x over seconds.  The mean of the pass
        # medians weighs those speeds by time; the median of all sets would
        # jump between them.
        medians = [statistics.fmean(samples["pass-p50"])]
    return {
        "setup_s": stats.median(setup),
        "op_p50_ms": 1000 * sum(medians),
        "op_tail_ms": 1000 * sum(stats.percentile(samples[k], stats.tail_percentile(len(samples[k])))
                                 for k in kinds),
        "ops_per_s": ops / busy,
        "peak_rss_mb": max(run.peak_rss),
        "ok_ratio": (run.attempted - len(run.failures)) / run.attempted,
    }


def per_layer(setup_layers: list[dict], samples: dict, layers: dict, counts: dict) -> dict[str, float]:
    """Means per round, so that the self times add up to ``trace.op_s``."""
    if not setup_layers or not layers:
        raise SetupError("no traced operation succeeded; nothing to measure")
    values = dict.fromkeys(PER_LAYER, 0.0)
    for per_kind in layers.values():
        for name in set().union(*per_kind):
            mean = statistics.fmean([v.get(name, 0.0) for v in per_kind])
            if name in LARGEST_OVER_KINDS:
                values[name] = max(values[name], mean)
            else:
                values[name] += mean
    # The set-up processes give these two for every workload.
    for name in ("cli.import_s", "geometry.space_s"):
        values[name] = statistics.fmean([v.get(name, 0.0) for v in setup_layers])
    values.update(counts)
    untraced = sum(statistics.fmean(v) for k, v in samples.items() if k in layers)
    values["trace.overhead_s"] = values["trace.op_s"] - untraced
    return values


def environment(root: Path, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    sources = sorted((root / "src" / "w52").glob("*.py"))
    tree = json.dumps([[p.name, sha256(p)] for p in sources]).encode()
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_sha": sha,
        "source_sha256": hashlib.sha256(tree).hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "w52" / "cli.py").is_file():
        print(f"error: {root} holds no w52 source tree (src/w52)", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= 120:
        print("error: --seconds must be between 1 and 120", file=sys.stderr)
        return 2

    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    samples: dict[str, list[float]] = {}
    layers: dict[str, list[dict]] = {}
    counts: dict[str, int] = {}
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(root, args.seed)}
    try:
        setup: list[float] = []
        setup_layers: list[dict] = []
        run.spawn(run.w52(["enumerate", "points"]))  # fills the bytecode cache
        measure_setup(run, SETUP_PROBES[0], setup, setup_layers)
        if args.workload == "census":
            census_workload(run, samples, layers)
        elif args.workload == "export":
            export_workload(run, samples, layers)
        else:
            counts = verify_workload(run, samples, layers)
        measure_setup(run, SETUP_PROBES[1], setup, setup_layers)
        if args.trace:
            metrics = per_layer(setup_layers, samples, layers, counts)
            units = PER_LAYER
        else:
            metrics = end_to_end(run, setup, samples)
            units = END_TO_END
    except (Mismatch, SetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for failure in run.failures:
            print(f"failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, run.attempted),
                          "failed": len(run.failures), "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    record.update(attempted=run.attempted, failures=run.failures, metrics=metrics, setup_s=setup,
                  samples={k: v for k, v in samples.items() if k not in ("set", "pass-p50")},
                  set_samples=len(samples.get("set", [])), layers=layers)
    record_path = run.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    env = record["environment"]
    print(f"# {args.workload} seed {args.seed}, {run.attempted} operations, {len(run.failures)} failed; "
          f"Python {env['python']}, {env['nproc']} CPUs, {env['cpu']}, git {env['git_sha']}, "
          f"source {env['source_sha256'][:16]}")
    for kind, values in samples.items():
        q1, q2, q3 = stats.quartiles(values) if len(values) > 1 else values * 3
        print(f"#   {kind}: median {q2:.6g} s, quartiles {q1:.6g} to {q3:.6g}, over {len(values)}")
    for key, value in metrics.items():
        print(f"#   {key:28s} {value:14.6g} {units[key]}")
    for failure in run.failures:
        print(f"# failed: {failure}")
    result = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(json.dumps({"correct": True, "attempted": run.attempted, "failed": len(run.failures),
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
