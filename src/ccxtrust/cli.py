"""Command-line harness around the simulator.

Subcommands:
    init         stand up a cluster, run enrollment, write the trace
    attest       composite attestation against a fresh cluster
    independent  the two-token baseline flow
    attack       run a named attack drill and report outcomes
    bench        fleet benchmark under a thread pool
    check-trace  verify trust-chain properties over a trace file

An argument @FILE reads more arguments from FILE, one per line, as in
--seed=99. They are parsed and checked as if typed in its place, so a
flag given after @FILE wins over the file's value.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import CcxError
# the commands that run flows import harness themselves, so that
# check-trace loads no key, device or service module
from .trace import ProtocolTrace, check_theorems


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _int_in(text: str, low: int, high: int | None, wanted: str) -> int:
    """text as an integer from low up to, not including, high."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < low or (high is not None and value >= high):
        raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """A fleet size or worker count: an integer of at least 1."""
    return _int_in(text, 1, None, "an integer of at least 1")


def _seed(text: str) -> int:
    """A scenario seed: an integer that fits the harness's 16 seed bytes."""
    return _int_in(text, 0, 1 << 128, "an integer from 0 to 2**128 - 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccxtrust",
        description="collaborative TPM+TEE attestation simulator",
        fromfile_prefix_chars="@")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=1,
                        help="deterministic scenario seed")
    common.add_argument("--out", default="out",
                        help="output directory for artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", parents=[common],
                       help="enroll a fleet and write the trace")
    p.add_argument("--nodes", type=_positive_int, default=2)

    p = sub.add_parser("attest", parents=[common],
                       help="run composite attestation")
    p.add_argument("--nodes", type=_positive_int, default=1)
    p.add_argument("--direction", choices=("tpm-tee", "tee-tpm"),
                   default="tpm-tee")

    sub.add_parser("independent", parents=[common],
                   help="run the two-token baseline")

    p = sub.add_parser("attack", parents=[common],
                       help="run an attack drill")
    # _cmd_attack checks the name against the harness's tables
    p.add_argument("--name", required=True, help="a drill or fault trace")
    p.add_argument("--nodes", type=_positive_int, default=3)
    p.set_defaults(usage_error=p.error)

    p = sub.add_parser("bench", parents=[common],
                       help="fleet benchmark")
    p.add_argument("--nodes", type=_positive_int, default=100)
    p.add_argument("--concurrency", type=_positive_int, default=16)
    p.add_argument("--direction", choices=("tpm-tee", "tee-tpm"),
                   default="tpm-tee")

    p = sub.add_parser("check-trace",
                       help="check trust properties over a trace file")
    p.add_argument("trace", help="trace file to check")
    return parser


def _cmd_init(args) -> int:
    from . import harness
    out = _out_dir(args)
    cluster = harness.build_cluster(args.seed, args.nodes)
    cluster.trace.write(out / "trace.log")
    digest = cluster.trace.digest().hex()
    verdicts = check_theorems(cluster.trace)
    _write_json(out / "summary.json", {
        "command": "init",
        "seed": args.seed,
        "nodes": args.nodes,
        "trace_events": len(cluster.trace.events),
        "trace_digest": digest,
        "registry": cluster.oca.snapshot().splitlines(),
        "theorems": {name: v.line() for name, v in verdicts.items()},
    })
    print(f"initialized {args.nodes} node(s); trace digest {digest}")
    for verdict in verdicts.values():
        print(" ", verdict.line())
    print(f"artifacts in {out}")
    return 0


def _cmd_attest(args) -> int:
    from . import harness
    out = _out_dir(args)
    result = harness.run_scenario(args.seed, nodes=args.nodes,
                                  direction=args.direction)
    result.trace.write(out / "trace.log")
    token_path = out / "token.txt"
    token_path.write_text(
        "\n".join(t.compact() for t in result.tokens) + "\n")
    digest = result.trace_digest
    verdicts = check_theorems(result.trace)
    _write_json(out / "summary.json", {
        "command": "attest",
        "seed": args.seed,
        "direction": args.direction,
        "nodes": args.nodes,
        "tokens": len(result.tokens),
        "verifier_visible_messages": result.trace.verifier_visible_sends(),
        "trace_digest": digest,
        "theorems": {name: v.line() for name, v in verdicts.items()},
    })
    ok = all(v.ok for v in verdicts.values())
    print(f"attested {args.nodes} node(s) [{args.direction}]; "
          f"{len(result.tokens)} token(s); trace digest {digest}")
    print(f"artifacts in {out}")
    return 0 if ok else 1


def _cmd_independent(args) -> int:
    from . import harness, protocol
    out = _out_dir(args)
    cluster = harness.build_cluster(args.seed, 1)
    tokens = protocol.run_attest_independent(
        cluster.actor(0), cluster.verifier_svc, cluster.channels,
        cluster.trace, policy_id=cluster.policy_id)
    cluster.trace.write(out / "trace.log")
    (out / "token.txt").write_text(
        "\n".join(t.compact() for t in tokens) + "\n")
    _write_json(out / "summary.json", {
        "command": "independent",
        "seed": args.seed,
        "tokens": len(tokens),
        "trace_digest": cluster.trace.digest().hex(),
    })
    print(f"independent attestation issued {len(tokens)} tokens "
          "(nothing binds them together)")
    print(f"artifacts in {out}")
    return 0


def _cmd_attack(args) -> int:
    from . import harness
    names = sorted({*harness.DRILLS, *harness.FAULT_TRACES})
    if args.name not in names:
        args.usage_error(f"argument --name: invalid choice: {args.name!r} "
                         f"(choose from {', '.join(map(repr, names))})")
    out = _out_dir(args)
    nodes = max(args.nodes, 2)
    if args.name in harness.FAULT_TRACES:
        _title, edit, expected_fail = harness.FAULT_TRACES[args.name]
        honest = harness.run_scenario(args.seed, nodes=nodes).trace
        trace = ProtocolTrace(edit(honest.events))
        trace.write(out / "trace.log")
        verdicts = check_theorems(trace)
        _write_json(out / "summary.json", {
            "command": "attack", "name": args.name, "seed": args.seed,
            "theorems": {name: v.line() for name, v in verdicts.items()},
        })
        failed = [name for name, v in verdicts.items() if not v.ok]
        print(f"fault {args.name}: violated {', '.join(failed) or 'nothing'}")
        for verdict in verdicts.values():
            print(" ", verdict.line())
        if failed == [expected_fail]:
            return 0
        print("unexpected theorem outcome for this fault", file=sys.stderr)
        return 2
    _title, drill = harness.DRILLS[args.name]
    report = drill(harness.build_cluster(args.seed, nodes))
    _write_json(out / "summary.json",
                {"command": "attack", "seed": args.seed,
                 **report.summary()})
    print(f"attack {report.name}: {report.attempted} attempted, "
          f"{report.accepted} accepted, {report.rejected} rejected")
    for key, count in sorted(report.outcomes.items()):
        print(f"  {key}: {count}")
    for note in report.notes:
        print(f"  note: {note}")
    if report.passed:
        print("defense held" if args.name != "token-pairing"
              else "baseline gap demonstrated")
        return 0
    print("ATTACK LANDED: defense did not hold", file=sys.stderr)
    return 2


def _cmd_bench(args) -> int:
    from . import harness
    out = _out_dir(args)
    result = harness.run_bench(args.seed, nodes=args.nodes,
                               concurrency=args.concurrency,
                               direction=args.direction)
    print(result.table())
    _write_json(out / "bench.json", result.summary())
    print(f"details in {out / 'bench.json'}")
    return 0 if result.successes == result.nodes else 1


def _cmd_check_trace(args) -> int:
    try:
        trace = ProtocolTrace.read(args.trace)
    except (CcxError, OSError) as exc:
        print(f"check-trace: {args.trace}: {exc}", file=sys.stderr)
        return 1
    verdicts = check_theorems(trace)
    for verdict in verdicts.values():
        print(verdict.line())
        if not verdict.ok:
            for index in verdict.witness:
                print("   ", trace.events[index].line(index))
    return 0 if all(v.ok for v in verdicts.values()) else 1


_COMMANDS = {
    "init": _cmd_init,
    "attest": _cmd_attest,
    "independent": _cmd_independent,
    "attack": _cmd_attack,
    "bench": _cmd_bench,
    "check-trace": _cmd_check_trace,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
