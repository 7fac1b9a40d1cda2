"""Command-line harness around the simulator.

Subcommands:
    init         stand up a cluster, run enrollment, write the trace
    attest       composite attestation against a fresh cluster
    independent  the two-token baseline flow
    attack       run a named attack drill and report outcomes
    bench        fleet benchmark under a thread pool
    check-trace  verify trust-chain properties over a trace file

Options can also come from a config file of KEY=VALUE lines (--config);
explicit flags win over file values.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness, protocol
from .errors import CcxError

ATTACKS = {
    "splice": lambda cluster: harness.attack_splice_matrix(
        cluster, sessions_per_node=3),
    "spoof-id": harness.attack_spoof_identity,
    "replay": harness.attack_replay,
    "stale-token": harness.attack_stale_token,
    "seed-rollback": harness.attack_seed_rollback,
    "image-forge": harness.attack_image_forge,
    "token-pairing": harness.attack_token_pairing_gap,
    "forged-cert": None,
    "forged-token": None,
    "reordered-sign": None,
}
_FAULT_TRACES = {
    "forged-cert": (harness.fault_trace_forged_cert, "cert-provenance"),
    "forged-token": (harness.fault_trace_forged_token, "token-provenance"),
    "reordered-sign": (harness.fault_trace_reordered_sign, "attest-order"),
}


def _read_config(path: str) -> dict[str, str]:
    values = {}
    for raw_line in Path(path).read_text().splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line must be KEY=VALUE: {line!r}")
        key, _, value = line.partition("=")
        values[key.strip().lower().replace("_", "-")] = value.strip()
    return values


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser,
                  argv: list[str]) -> argparse.Namespace:
    """File values fill in anything the command line left at default."""
    if not getattr(args, "config", None):
        return args
    try:
        values = _read_config(args.config)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config: {exc}")
    explicit = {a.lstrip("-").split("=")[0] for a in argv if a.startswith("--")}
    for key, value in values.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr) or key in explicit:
            continue
        current = getattr(args, attr)
        if isinstance(current, bool):
            setattr(args, attr, value.lower() in ("1", "true", "yes"))
        elif isinstance(current, int):
            try:
                setattr(args, attr, int(value))
            except ValueError:
                parser.error(f"config value {key} = {value!r} is not an integer")
        else:
            setattr(args, attr, value)
    return args


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccxtrust",
        description="collaborative TPM+TEE attestation simulator")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="KEY=VALUE option file")
    common.add_argument("--seed", type=int, default=1,
                        help="deterministic scenario seed")
    common.add_argument("--out", default="out",
                        help="output directory for artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", parents=[common],
                       help="enroll a fleet and write the trace")
    p.add_argument("--nodes", type=int, default=2)

    p = sub.add_parser("attest", parents=[common],
                       help="run composite attestation")
    p.add_argument("--nodes", type=int, default=1)
    p.add_argument("--direction", choices=("tpm-tee", "tee-tpm"),
                   default="tpm-tee")

    sub.add_parser("independent", parents=[common],
                   help="run the two-token baseline")

    p = sub.add_parser("attack", parents=[common],
                       help="run an attack drill")
    p.add_argument("--name", choices=sorted(ATTACKS), required=True)
    p.add_argument("--nodes", type=int, default=3)

    p = sub.add_parser("bench", parents=[common],
                       help="fleet benchmark")
    p.add_argument("--nodes", type=int, default=100)
    p.add_argument("--concurrency", type=int, default=16)
    p.add_argument("--direction", choices=("tpm-tee", "tee-tpm"),
                   default="tpm-tee")

    p = sub.add_parser("check-trace", parents=[common],
                       help="check trust properties over a trace file")
    p.add_argument("trace", help="trace file to check")
    return parser


def _cmd_init(args) -> int:
    out = _out_dir(args)
    cluster = harness.build_cluster(args.seed, args.nodes)
    cluster.trace.write(out / "trace.log")
    verdicts = protocol.check_theorems(cluster.trace)
    _write_json(out / "summary.json", {
        "command": "init",
        "seed": args.seed,
        "nodes": args.nodes,
        "trace_events": len(cluster.trace.events),
        "trace_digest": cluster.trace.digest().hex(),
        "registry": cluster.oca.snapshot().splitlines(),
        "theorems": {name: v.line() for name, v in verdicts.items()},
    })
    print(f"initialized {args.nodes} node(s); "
          f"trace digest {cluster.trace.digest().hex()}")
    for verdict in verdicts.values():
        print(" ", verdict.line())
    print(f"artifacts in {out}")
    return 0


def _cmd_attest(args) -> int:
    out = _out_dir(args)
    result = harness.run_scenario(args.seed, nodes=args.nodes,
                                  direction=args.direction,
                                  include_independent=False)
    result.trace.write(out / "trace.log")
    token_path = out / "token.txt"
    token_path.write_text(
        "\n".join(t.compact() for t in result.tokens) + "\n")
    verdicts = protocol.check_theorems(result.trace)
    _write_json(out / "summary.json", {
        "command": "attest",
        "seed": args.seed,
        "direction": args.direction,
        "nodes": args.nodes,
        "tokens": len(result.tokens),
        "verifier_visible_messages": result.trace.verifier_visible_sends(),
        "trace_digest": result.trace_digest,
        "theorems": {name: v.line() for name, v in verdicts.items()},
    })
    ok = all(v.ok for v in verdicts.values())
    print(f"attested {args.nodes} node(s) [{args.direction}]; "
          f"{len(result.tokens)} token(s); trace digest {result.trace_digest}")
    print(f"artifacts in {out}")
    return 0 if ok else 1


def _cmd_independent(args) -> int:
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
    out = _out_dir(args)
    cluster = harness.build_cluster(args.seed, max(args.nodes, 2))
    if args.name in _FAULT_TRACES:
        build, expected_fail = _FAULT_TRACES[args.name]
        trace = build(cluster)
        trace.write(out / "trace.log")
        verdicts = protocol.check_theorems(trace)
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
    report = ATTACKS[args.name](cluster)
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
        trace = protocol.ProtocolTrace.read(args.trace)
    except CcxError as exc:
        print(f"check-trace: {args.trace}: {exc}", file=sys.stderr)
        return 1
    verdicts = protocol.check_theorems(trace)
    for verdict in verdicts.values():
        print(verdict.line())
        if not verdict.ok:
            for index in verdict.witness:
                print("   ", trace.events[index].line())
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
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args = _apply_config(args, parser, argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
