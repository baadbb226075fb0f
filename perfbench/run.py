"""Host-time benchmark of provledger.

Run from the repository root:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 25 --trace 0

``--workload`` is ``ingest``, ``backlog``, ``audit`` or ``all``. With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics; with ``--trace 1`` the workload runs once untraced and once traced,
and the JSON carries the per-layer metrics instead. Earlier lines give each
metric by name with its unit, the result tallies, and any failed check.
Exit status is 0 only when every check passed; it is 2, with no result, when
the checkout lacks the sources or fixtures the benchmark needs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

SETUP_REPEATS = 5
# A fixed hash seed gives every run the same str-keyed dict layouts; with a
# random one, microsecond-scale query times differed by a few percent from
# one process to the next.
HASH_SEED = "0"
NEEDED = ("src/provledger/__init__.py", "fixtures/sim_config.json", "fixtures/vaccine_policy.json")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ingest", "backlog", "audit", "all"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path):
    """Set up, measure, and check one workload; returns (result dict, summary lines)."""
    import engine

    workload = engine.WORKLOADS[name](seed, engine.Env(Path.cwd(), work / name))
    checks = engine.Samples()
    setup_times, setup_raw, setups = engine.timed_setups(workload, SETUP_REPEATS)
    for _, problems in setups:
        for problem in problems:
            checks.failures.append(f"set-up: {problem}")
    checks.attempted += SETUP_REPEATS
    if len({print_ for print_, _ in setups}) != 1:
        checks.failures.append("repeated set-ups with one seed built different chains")

    plain = engine.Samples()
    plain_prints = engine.timed_phase(workload, seconds, plain, engine.NullTracer())
    rss = engine.peak_rss_mb()
    metrics = engine.end_to_end(plain, setup_times, rss)
    lines = engine.summary_lines(name, plain, metrics, engine.end_to_end(plain, setup_raw, rss, False))
    phases, units = [plain], engine.UNITS
    if trace:
        import tracing

        workload.setup()
        traced = engine.Samples()
        tracer = tracing.Tracer()
        with tracer.installed():
            traced_prints = engine.timed_phase(workload, seconds, traced, tracer)
        common = min(len(plain_prints), len(traced_prints))
        if plain_prints[:common] != traced_prints[:common]:
            checks.failures.append("traced and untraced runs of one seed reached different heads")
        traced_metrics = engine.end_to_end(traced, setup_times, rss)
        lines += engine.summary_lines(f"{name}[traced]", traced, traced_metrics,
                                      engine.end_to_end(traced, setup_raw, rss, False))
        lines.append(f"{name} select_share {tracing.select_share(tracer, traced.meter):.6g}")
        metrics = tracing.layer_metrics(tracer, traced, metrics, traced_metrics)
        phases.append(traced)
        units = tracing.UNITS
        lines += [f"{name} {k} {v:.6g} {units[k]}" for k, v in metrics.items()]
    workload.final_check(checks)
    engine.check_simulated_ceiling(workload.env, checks)
    lines += [f"{name} FAILED {message}" for message in checks.failures]
    failed = len(checks.failures) + sum(len(p.failures) for p in phases)
    attempted = checks.attempted + sum(p.attempted for p in phases)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    missing = [path for path in NEEDED if not (root / path).is_file()]
    if missing:
        print(f"run from a provledger checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import provledger

    if Path(provledger.__file__).resolve().parent != src / "provledger":
        print(f"provledger imported from {provledger.__file__}, not {src}", file=sys.stderr)
        return 2

    names = ("ingest", "backlog", "audit") if args.workload == "all" else (args.workload,)
    work = root / ".bench_work" / f"run-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    results = {}
    try:
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace), work)
            print("\n".join(lines), flush=True)
            results[name] = result
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())
