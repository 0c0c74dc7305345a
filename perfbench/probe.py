"""The w52 side of the benchmark, run in a fresh interpreter with w52 on the path.

    probe.py cli OUT.json -- W52-ARGS...      run ``w52 W52-ARGS`` with layer spans
    probe.py verify IN.json OUT.json SECONDS TRACE
                                              the library verify loop over IN's sets

``cli`` mode times ``import w52`` and records a span around every layer
call of the command; for a census it also times the program's own Table 1
and structural-law checks on the census it built.  ``verify`` mode runs
``ContextSet.from_words`` -> ``analyze`` -> ``wa_symbol`` over every set in
passes until SECONDS have gone; with TRACE=1 every other pass also times the
three calls apart, so the traced and untraced passes give the tracing
overhead.  Both write their findings as JSON to OUT.
"""

import os
import sys
import time


def save_status() -> None:
    """Leave a copy of /proc/self/status where the harness reads peak RSS."""
    with open("/proc/self/status") as src, open(os.environ["PERFBENCH_STATUS"], "w") as dst:
        dst.write(src.read())


def run_cli(out_path: str, argv: list[str]) -> int:
    start = time.perf_counter()
    import w52.cli

    imported = time.perf_counter()
    import json

    from spans import Tracer, summarize, top_level

    tracer = Tracer()
    tracer.add("cli.import", start, imported)
    tracer.install()
    code = w52.cli.main(argv)
    checks_ok = None
    census = tracer.results.get("taxonomy.classify")
    if census is not None:
        from w52.taxonomy import compare_with_table1, structural_laws

        check_start = time.perf_counter()
        checks_ok = compare_with_table1(census).ok and structural_laws(census).ok
        tracer.add("taxonomy.check", check_start, time.perf_counter())
    pentads = tracer.results.get("pentads.enumerate")
    report = {
        "layers": summarize(tracer.spans),
        "top_level": top_level(tracer.spans),
        "peak_mb": tracer.peak_mb,
        "pentads_found": None if pentads is None else len(pentads),
        "types": None if census is None else len(census.records),
        "checks_ok": checks_ok,
    }
    with open(out_path, "w") as f:
        json.dump(report, f)
    save_status()
    return code


def run_verify(in_path: str, out_path: str, seconds: float, trace: bool) -> int:
    import json

    with open(in_path) as f:
        sets = json.load(f)["sets"]
    from w52.contextuality import ContextSet, analyze, wa_symbol

    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    results: list = [None] * len(sets)
    mismatches: list[int] = []
    failures: list[str] = []
    latencies_ns: list[list[int]] = []  # per untraced pass
    passes = []
    while not passes or clock() < deadline:
        traced = trace and len(passes) % 2 == 0
        parse = analyze_t = symbol_t = 0
        if not traced:
            latencies_ns.append([])
        pass_start = clock()
        for i, rows in enumerate(sets):
            try:
                if traced:
                    t0 = clock()
                    context_set = ContextSet.from_words(rows)
                    t1 = clock()
                    report = analyze(context_set)
                    t2 = clock()
                    symbol = wa_symbol(context_set)
                    t3 = clock()
                    parse += t1 - t0
                    analyze_t += t2 - t1
                    symbol_t += t3 - t2
                else:
                    t0 = clock()
                    context_set = ContextSet.from_words(rows)
                    report = analyze(context_set)
                    symbol = wa_symbol(context_set)
                    t3 = clock()
                    latencies_ns[-1].append(t3 - t0)
            except Exception as exc:  # a failed operation is counted, not fatal
                failures.append(f"set {i}: {type(exc).__name__}: {exc}")
                continue
            outcome = (report.verdict.value, report.negative_count, symbol)
            if results[i] is None:
                results[i] = outcome
            elif results[i] != outcome:
                mismatches.append(i)
        passes.append(
            {
                "traced": traced,
                "wall_s": (clock() - pass_start) / 1e9,
                "parse_s": parse / 1e9,
                "analyze_s": analyze_t / 1e9,
                "wa_symbol_s": symbol_t / 1e9,
            }
        )
    report_out = {
        "passes": passes,
        "latencies_ns": latencies_ns,
        "results": [
            None
            if r is None
            else [r[0], r[1], [list(x) for x in r[2].point_part], [list(x) for x in r[2].context_part]]
            for r in results
        ],
        "mismatches": mismatches,
        "failures": failures,
    }
    with open(out_path, "w") as f:
        json.dump(report_out, f)
    save_status()
    return 0


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "cli" and argv[2] == "--":
        return run_cli(argv[1], argv[3:])
    if len(argv) == 5 and argv[0] == "verify":
        return run_verify(argv[1], argv[2], float(argv[3]), argv[4] == "1")
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
