"""Run the benchmark on a parent revision and on the working tree, in
alternating pairs, and write the pair record BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent HEAD --seed 36101 --out BENCH_36.json
    python3 tools/bench_pairs.py --parent HEAD --seed 38101 \
        --claim onboard/peak_rss_mb --out BENCH_38.json

The parent's src/ and perfbench/ are extracted with `git archive` into a
scratch directory, and the working tree's are copied beside them, so both
sides run the same command from the same kind of checkout:
`python3 perfbench/run.py --workload W --seed N --seconds S --trace 0`,
one run at a time. Every workload of BENCHMARK.json runs ten pairs. Pair
k of the i-th workload runs seed SEED + 100 * i + k on both sides, and
pair k runs the parent first when k is even, the change first when it is
odd. The workloads, the metrics, their units, their bounds and the run
length S come from BENCHMARK.json; the tool reads BENCHMARK.json and
perfbench/ and changes neither.

Each metric of each workload gets one verdict, by RULE below, and the
tool prints one line per metric. --claim names the one metric the change
claims to improve, as WORKLOAD/METRIC of BENCHMARK.json, or none (the
default); a claimed metric's verdict is the last line printed, as
"claim WORKLOAD/METRIC: VERDICT". It needs only the standard library.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKOUT = ("src", "perfbench")   # what perfbench/run.py needs of a tree
SIDES = ("parent", "change")
PAIRS = 10          # pairs per workload; a record holds at least this many
GAIN_SHARE = 0.9    # a gain needs the change better in this share of them
STDERR_TAIL = 10    # lines of a failed run's stderr that its error keeps

RULE = (
    "per metric, from the medians and quartiles of each side's runs: "
    "regression when the change's median is worse than the parent's by "
    "more than the metric's BENCHMARK.json bound; gain when the change "
    "reads better in at least nine tenths of the pairs (ten or more; "
    "ties count for neither), its "
    "median is better by more than the parent's interquartile range, and "
    "no larger share of the workload's operations failed; unresolved when "
    "the parent's interquartile range is wider than the bound, unless "
    "every change run reads better than every parent run; otherwise "
    "within bound")

QUARTILES = (
    "statistics.quantiles(n=4, method='inclusive') over the pairs' runs of "
    "each side; change_wins counts pairs where the change reads better "
    "(ties count for neither); change_over_parent is the ratio of the "
    "medians; parent and change list every run, in seed order; "
    "digests_equal says, per pair, whether both sides' run records hold "
    "the same trace and token digests; verdict applies rule")


# ---------------------------------------------------------------------------
# summarising runs: pure functions of the run list
# ---------------------------------------------------------------------------

def summarise_metric(spec: dict, parent: list[float], change: list[float],
                     more_failures: bool) -> dict:
    """One metric's entry: both sides' runs, in pair order, their
    quartiles, the change's wins, the ratio of medians and the verdict."""
    lower = spec["better"] == "lower"

    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    p_q, c_q = (statistics.quantiles(values, n=4, method="inclusive")
                for values in (parent, change))
    wins = sum(better(c, p) for p, c in zip(parent, change))
    ratio = c_q[1] / p_q[1]
    worse_by = ratio - 1 if lower else 1 - ratio
    iqr = p_q[2] - p_q[0]
    if worse_by > spec["bound"]:
        verdict = "regression"
    elif (wins >= GAIN_SHARE * len(parent)
          and better(c_q[1], p_q[1])
          and abs(c_q[1] - p_q[1]) > iqr and not more_failures):
        verdict = "gain"
    elif iqr > spec["bound"] * abs(p_q[1]) and not all(
            better(c, p) for c in change for p in parent):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": parent, "change": change,
            "parent_quartiles": p_q, "change_quartiles": c_q,
            "change_over_parent": ratio, "change_wins": wins,
            "unit": spec["unit"], "verdict": verdict}


def summarise_workload(runs: list[dict], end_to_end: list[dict]) -> dict:
    """The record of one workload from its runs. Each run is a dict with
    pair, seed, side, first (the side that ran first in its pair),
    result (perfbench's JSON result line) and digests (the run record's
    *_digest entries)."""
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [by_pair[k] for k in sorted(by_pair)]
    if any(set(pair) != set(SIDES) for pair in pairs):
        raise ValueError("every pair needs one parent and one change run")
    if len(pairs) < PAIRS:
        raise ValueError(f"a workload needs at least {PAIRS} pairs")

    def per_side(read) -> dict[str, list]:
        return {side: [read(pair[side]) for pair in pairs] for side in SIDES}

    attempted = per_side(lambda run: run["result"]["attempted"])
    failed = per_side(lambda run: run["result"]["failed"])
    share = {side: sum(failed[side]) / max(sum(attempted[side]), 1)
             for side in SIDES}
    metrics = {}
    for spec in end_to_end:
        values = per_side(
            lambda run: run["result"]["metrics"][spec["name"]]["value"])
        metrics[spec["name"]] = summarise_metric(
            spec, values["parent"], values["change"],
            share["change"] > share["parent"])
    return {
        "seeds": [pair["parent"]["seed"] for pair in pairs],
        "first": [pair["parent"]["first"] for pair in pairs],
        "attempted": attempted,
        "failed": failed,
        "correct": per_side(lambda run: run["result"]["correct"]),
        "metrics": metrics,
        "digests_equal": [pair["parent"]["digests"] == pair["change"]["digests"]
                          for pair in pairs],
    }


def parse_claim(claim: str, bench: dict) -> tuple[str, str] | None:
    """The (workload, metric) a claim names, or None for "none"; raises
    ValueError for any name BENCHMARK.json does not define."""
    if claim == "none":
        return None
    workload, _, metric = claim.partition("/")
    if (workload not in {w["name"] for w in bench["workloads"]}
            or metric not in {m["name"] for m in bench["end_to_end"]}):
        raise ValueError(f"--claim takes none or WORKLOAD/METRIC of "
                         f"BENCHMARK.json, not {claim!r}")
    return workload, metric


def claim_line(workloads: dict, claim: tuple[str, str]) -> str:
    workload, metric = claim
    verdict = workloads[workload]["metrics"][metric]["verdict"]
    return f"claim {workload}/{metric}: {verdict}"


def verdict_lines(workloads: dict) -> list[str]:
    lines = []
    for name, record in workloads.items():
        for metric, entry in record["metrics"].items():
            p_q = entry["parent_quartiles"]
            spread = (p_q[2] - p_q[0]) / abs(p_q[1]) if p_q[1] else 0.0
            lines.append(
                f"{name} {metric}: {entry['verdict']} (change/parent "
                f"{entry['change_over_parent']:.3f}, change better in "
                f"{entry['change_wins']} of {len(entry['parent'])} pairs, "
                f"parent IQR {spread:.1%} of its median)")
    return lines


# ---------------------------------------------------------------------------
# running pairs
# ---------------------------------------------------------------------------

def extract_parent(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", rev, *CHECKOUT], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:   # pragma: no cover - Python before 3.11.4
            tar.extractall(into)


def copy_change(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "out", ".pytest_cache")
    for name in CHECKOUT:
        shutil.copytree(ROOT / name, into / name, ignore=ignore)


def command(seconds: int) -> str:
    """The record's statement of the command each run ran."""
    return (f"python3 perfbench/run.py --workload W --seed N "
            f"--seconds {seconds} --trace 0")


class RunFailed(RuntimeError):
    """A benchmark run that exited non-zero or printed no JSON result."""


def json_result(stdout: str) -> dict | None:
    """The JSON object on the last line of stdout, or None."""
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def run_once(checkout: Path, side: str, workload: str, seed: int,
             seconds: int) -> tuple[dict, dict]:
    """perfbench's result line for one untraced run, and the run record
    it wrote. A run that fails raises RunFailed, naming the side, the
    workload, the seed, the exit code and the end of the run's stderr."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    result = json_result(done.stdout) if done.returncode == 0 else None
    if result is None:
        why = (f"exited {done.returncode}" if done.returncode
               else "exited 0 with no JSON result as its last line")
        tail = "".join(f"\n  {line}" for line in
                       done.stderr.splitlines()[-STDERR_TAIL:])
        raise RunFailed(f"{side} run of {workload} seed {seed} {why}; "
                        f"its stderr ends:{tail or ' (empty)'}")
    record_path = (checkout / "perfbench" / "out"
                   / f"record-{workload}-seed{seed}-trace0.json")
    record = json.loads(record_path.read_text())
    return result, record


def run_pairs(checkouts: dict[str, Path], workloads: list[str], seed: int,
              seconds: int) -> tuple[dict[str, list], dict]:
    runs: dict[str, list] = {}
    env: dict = {}
    for i, workload in enumerate(workloads):
        runs[workload] = []
        for k in range(PAIRS):
            pair_seed = seed + 100 * i + k
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                result, record = run_once(checkouts[side], side, workload,
                                          pair_seed, seconds)
                env = env or {key: record[key] for key in
                              ("cpu_count", "python", "cryptography")}
                runs[workload].append({
                    "pair": k, "seed": pair_seed, "side": side,
                    "first": order[0], "result": result,
                    "digests": {key: value for key, value in record.items()
                                if key.endswith("_digest")}})
                print(f"{workload} seed {pair_seed} {side}: "
                      f"failed {result['failed']} of {result['attempted']}",
                      file=sys.stderr, flush=True)
    return runs, env


def seed_ranges(workloads: list[str], seed: int) -> str:
    return ", ".join(
        f"{workload} seeds {seed + 100 * i}-{seed + 100 * i + PAIRS - 1}"
        for i, workload in enumerate(workloads))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="the git revision the change is measured against")
    parser.add_argument("--seed", type=int, required=True,
                        help="first seed; pick one not used while writing "
                             "the change")
    parser.add_argument("--scratch", default=None,
                        help="directory for the two checkouts (default: "
                             "the system's temporary directory)")
    parser.add_argument("--claim", default="none",
                        help="none, or the WORKLOAD/METRIC of BENCHMARK.json "
                             "that the change claims to improve")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        claim = parse_claim(args.claim, bench)
    except ValueError as exc:
        parser.error(str(exc))
    parent = subprocess.run(["git", "rev-parse", "--short", args.parent],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    with tempfile.TemporaryDirectory(dir=args.scratch) as scratch:
        checkouts = {side: Path(scratch) / side for side in SIDES}
        extract_parent(parent, checkouts["parent"])
        copy_change(checkouts["change"])
        runs, env = run_pairs(checkouts, names, args.seed,
                              bench["run_seconds"])
    workloads = {workload: summarise_workload(runs[workload],
                                              bench["end_to_end"])
                 for workload in names}
    record = {
        "command": command(bench["run_seconds"]),
        "host": (f"{env['cpu_count']}-core host, Python {env['python']}, "
                 f"cryptography {env['cryptography']}, one run at a time, "
                 "parent and change alternating which runs first"),
        "runs": (f"the working tree against {parent}: "
                 + seed_ranges(names, args.seed)),
        "quartiles": QUARTILES,
        "rule": RULE,
        "claim": args.claim,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for line in verdict_lines(workloads):
        print(line)
    if claim is not None:
        print(claim_line(workloads, claim))
    return 0


if __name__ == "__main__":
    sys.exit(main())
