"""The pair runner's summary, on a synthetic run list, and every pair
record it wrote: each metric entry is what the summary gives for the
runs the record lists. No benchmark run is started."""

import json

import pytest

import bench_pairs

BENCH = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
FIRST_RECORD = 36   # the first BENCH_<n>.json the tool wrote
FIRST_CLAIM = 38    # the first record whose claim names its metric

SPECS = [
    {"name": "cpu_ms_per_op", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "throughput_ops_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
    {"name": "audit_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
]


def synthetic_runs(values: dict[str, tuple[list, list]], *, failed=(0, 0),
                   change_digest="a"):
    """One pair of runs per value of each series; values maps a metric to
    its parent and change series, and the first pair's runs fail
    failed[side] ops."""
    runs = []
    for k in range(len(next(iter(values.values()))[0])):
        order = bench_pairs.SIDES if k % 2 == 0 else bench_pairs.SIDES[::-1]
        for index, side in enumerate(bench_pairs.SIDES):
            metrics = {name: {"value": series[index][k]}
                       for name, series in values.items()}
            runs.append({
                "pair": k, "seed": 500 + k, "side": side, "first": order[0],
                "result": {"correct": True, "attempted": 100,
                           "failed": failed[index] if k == 0 else 0,
                           "metrics": metrics},
                "digests": {"trace_digest": "a" if side == "parent"
                            else change_digest}})
    # the summary reads pairs in order, whatever order the runs came in
    return runs[::-1]


def test_summary_of_a_synthetic_run_list():
    steady = [10.0 + 0.1 * (k % 3) for k in range(10)]
    values = {
        # the change is 20% cheaper in every pair: a gain
        "cpu_ms_per_op": (steady, [v * 0.8 for v in steady]),
        # 40% fewer ops per second: worse than the 25% bound
        "throughput_ops_s": (steady, [v * 0.6 for v in steady]),
        # the parent's own runs spread over 100%: unresolved
        "audit_s": ([1.0, 3.0] * 5, [2.0] * 10),
        # 5% worse, inside the 15% bound, on a steady parent
        "peak_rss_mb": (steady, [v * 1.05 for v in steady]),
    }
    record = bench_pairs.summarise_workload(synthetic_runs(values), SPECS)
    assert record["seeds"] == list(range(500, 510))
    assert record["first"] == ["parent", "change"] * 5
    assert record["attempted"] == {"parent": [100] * 10, "change": [100] * 10}
    assert record["correct"]["change"] == [True] * 10
    assert record["digests_equal"] == [True] * 10
    metrics = record["metrics"]
    assert list(metrics) == list(values)
    cpu = metrics["cpu_ms_per_op"]
    assert cpu["parent"] == steady
    assert cpu["parent_quartiles"] == pytest.approx([10.0, 10.1, 10.175])
    assert cpu["change_over_parent"] == pytest.approx(0.8)
    assert cpu["change_wins"] == 10
    assert cpu["unit"] == "ms"
    assert {name: entry["verdict"] for name, entry in metrics.items()} == {
        "cpu_ms_per_op": "gain", "throughput_ops_s": "regression",
        "audit_s": "unresolved", "peak_rss_mb": "within bound"}


def test_no_gain_when_more_operations_fail_or_pairs_split():
    steady = [10.0 + 0.1 * (k % 3) for k in range(10)]
    cheaper = [v * 0.8 for v in steady]
    runs = synthetic_runs({"cpu_ms_per_op": (steady, cheaper)},
                          failed=(0, 1), change_digest="b")
    record = bench_pairs.summarise_workload(runs, SPECS[:1])
    assert record["failed"]["change"] == [1] + [0] * 9
    assert record["digests_equal"] == [False] * 10
    assert record["metrics"]["cpu_ms_per_op"]["verdict"] == "within bound"
    # better in 8 pairs of 10 is no gain either
    split = cheaper[:8] + steady[8:]
    record = bench_pairs.summarise_workload(
        synthetic_runs({"cpu_ms_per_op": (steady, split)}), SPECS[:1])
    assert record["metrics"]["cpu_ms_per_op"]["change_wins"] == 8
    assert record["metrics"]["cpu_ms_per_op"]["verdict"] == "within bound"


def test_a_run_list_with_a_lone_side_or_too_few_pairs_is_refused():
    runs = synthetic_runs({"cpu_ms_per_op": ([1.0] * 10, [1.0] * 10)})
    with pytest.raises(ValueError, match="one parent and one change"):
        bench_pairs.summarise_workload(runs[1:], SPECS[:1])
    runs = synthetic_runs({"cpu_ms_per_op": ([1.0] * 9, [1.0] * 9)})
    with pytest.raises(ValueError, match="at least 10 pairs"):
        bench_pairs.summarise_workload(runs, SPECS[:1])


def test_a_claim_names_a_workload_and_metric_of_the_benchmark(capsys):
    assert bench_pairs.parse_claim("none", BENCH) is None
    assert bench_pairs.parse_claim("onboard/peak_rss_mb", BENCH) == (
        "onboard", "peak_rss_mb")
    for claim in ("onboard", "onboard/", "fleet/peak_rss_mb",
                  "onboard/peak_rss", "onboard/crypto.sign.calls",
                  "onboard/peak_rss_mb/x"):
        with pytest.raises(ValueError, match="WORKLOAD/METRIC"):
            bench_pairs.parse_claim(claim, BENCH)
    # the tool refuses it before it extracts or runs anything
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", "HEAD", "--seed", "1", "--claim",
                          "attest/speed", "--out", "unwritten.json"])
    assert "not 'attest/speed'" in capsys.readouterr().err
    steady = [10.0 + 0.1 * (k % 3) for k in range(10)]
    record = bench_pairs.summarise_workload(synthetic_runs(
        {"peak_rss_mb": (steady, [v * 0.9 for v in steady])}), SPECS[3:])
    assert bench_pairs.claim_line({"onboard": record}, (
        "onboard", "peak_rss_mb")) == "claim onboard/peak_rss_mb: gain"


def _stub_checkout(root, script: str):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(script)
    return root


def test_a_failed_run_names_its_side_workload_seed_and_stderr(tmp_path):
    # a run that exits 1, and one whose last line is no JSON result: the
    # error says which run it was and keeps the end of what it printed
    crashed = _stub_checkout(tmp_path / "crashed", (
        "import sys\n"
        "for n in range(30):\n"
        "    print(f'stderr line {n}', file=sys.stderr)\n"
        "print('{\"partial\": true}')\n"
        "sys.exit(1)\n"))
    with pytest.raises(bench_pairs.RunFailed) as info:
        bench_pairs.run_once(crashed, "change", "onboard", 4207, 1)
    message = str(info.value)
    assert message.startswith("change run of onboard seed 4207 exited 1;")
    tail = message.split("stderr ends:", 1)[1].splitlines()
    assert tail == [""] + [f"  stderr line {n}" for n in range(20, 30)]
    silent = _stub_checkout(tmp_path / "silent", "print('no result')\n")
    with pytest.raises(bench_pairs.RunFailed,
                       match="^parent run of hostile seed 9 exited 0 with no "
                             "JSON result as its last line; its stderr "
                             "ends: [(]empty[)]$"):
        bench_pairs.run_once(silent, "parent", "hostile", 9, 1)


def _records():
    for path in sorted(bench_pairs.ROOT.glob("BENCH_*.json")):
        if int(path.stem.split("_")[1]) >= FIRST_RECORD:
            yield path


def test_every_pair_record_the_tool_wrote_holds_its_own_summary():
    paths = list(_records())
    assert paths, "the tool's first record is committed"
    specs = {spec["name"]: spec for spec in BENCH["end_to_end"]}
    # every run ran the benchmark's own length, on every workload
    command = ("python3 perfbench/run.py --workload W --seed N --seconds "
               f"{BENCH['run_seconds']} --trace 0")
    for path in paths:
        record = json.loads(path.read_text())
        assert set(record) == {"command", "host", "runs", "quartiles", "rule",
                               "claim", "workloads"}, path.name
        assert record["command"] == command, path.name
        assert list(record["workloads"]) == [
            workload["name"] for workload in BENCH["workloads"]], path.name
        for name, workload in record["workloads"].items():
            assert set(workload) == {"seeds", "first", "attempted", "failed",
                                     "correct", "metrics", "digests_equal"}
            pairs = len(workload["seeds"])
            assert pairs >= bench_pairs.PAIRS, (path.name, name)
            assert all(len(workload[key]) == pairs
                       for key in ("first", "digests_equal"))
            shares = {side: sum(workload["failed"][side])
                      / max(sum(workload["attempted"][side]), 1)
                      for side in bench_pairs.SIDES}
            for metric, entry in workload["metrics"].items():
                assert entry == bench_pairs.summarise_metric(
                    specs[metric], entry["parent"], entry["change"],
                    shares["change"] > shares["parent"]), (name, metric)


def test_every_claimed_metric_reads_gain():
    for path in _records():
        record = json.loads(path.read_text())
        if int(path.stem.split("_")[1]) < FIRST_CLAIM:
            continue
        claim = bench_pairs.parse_claim(record["claim"], BENCH)
        if claim is not None:
            assert bench_pairs.claim_line(record["workloads"], claim).endswith(
                ": gain"), path.name
