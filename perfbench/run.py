#!/usr/bin/env python3
"""ccxtrust benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload attest --seed 1 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics with no instrumentation beyond a
timer on the verifier's appraisal call. --trace 1 runs a fixed block of ops
untraced and the same block traced with the span recorder, and reports the
per-layer metrics. Human-readable lines come first; the last line of
standard output is the JSON result. Spans and a run record are written
under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="onboard, attest or hostile")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def import_workloads():
    """Import the benchmark against the ccxtrust sources of this checkout,
    never an installed copy. Returns None when the sources are missing."""
    if not (SRC / "ccxtrust" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import ccxtrust
    if Path(ccxtrust.__file__).resolve().parent != SRC / "ccxtrust":
        return None
    import workloads
    return workloads


def execute(wl, workload: str, seed: int, seconds: float, trace: bool,
            sizes=None, out_dir: Path | None = OUT) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and the report lines."""
    run = wl.Run(workload, seed, seconds, sizes or wl.FULL)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        spans = out_dir / f"spans-{tag}.csv" if out_dir is not None else None
        values = run.traced(spans)
        units = dict(wl.per_layer_names())
    else:
        values = run.measure()
        units = dict(wl.END_TO_END)
    result = {
        "correct": run.correct(),
        "attempted": run.ops,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    env = wl.environment()
    lines = [f"workload {workload}  seed {seed}  trace {int(trace)}  "
             f"cpus {env['cpu_count']}  python {env['python']}  "
             f"cryptography {env['cryptography']}"]
    for key, value in sorted(run.record.items()):
        lines.append(f"record {key} {value}")
    lines.append(f"ops {run.ops}  failed {run.failed}  "
                 f"error_rate {run.failed / max(run.ops, 1):.4f}  "
                 f"op samples {len(run.samples)}  "
                 f"setup reps {len(run.setup_s)}  audits {len(run.audit_s)}")
    for outcome, count in sorted(run.outcomes.items()):
        lines.append(f"outcome {outcome} {count}")
    for kind_outcome, count in sorted(run.kind_outcomes.items()):
        lines.append(f"hostile {kind_outcome} {count}")
    lines.extend(f"verdict {line}" for line in run.verdict_lines)
    lines.extend(f"problem {p}" for p in run.problems[:10])
    for name, unit in units.items():
        lines.append(f"{name} {values[name]:.6g} {unit}")
    if out_dir is not None:
        record = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": int(trace), **env, **run.record,
                  "outcomes": dict(run.outcomes),
                  "hostile_outcomes": dict(run.kind_outcomes),
                  "verdicts": run.verdict_lines, "problems": run.problems,
                  "result": result}
        (out_dir / f"record-{tag}.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n")
    return result, lines


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    wl = import_workloads()
    if wl is None:
        print(f"perfbench: no ccxtrust sources at {SRC}; run from the root "
              "of a ccxtrust checkout", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    result, lines = execute(wl, args.workload, args.seed, args.seconds,
                            bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
