"""Trace model and audit: the line codec, reading, writing and digesting
a trace, the three trust properties check_theorems judges, the fault
gallery and its pinned verdict lines, and a differential check of the
single-pass checker against a quadratic reference."""

import dataclasses
import random
from collections import Counter

import pytest

from ccxtrust import crypto, harness, protocol
from ccxtrust.errors import DecodeError
from ccxtrust.trace import (
    OCA_PRINCIPAL,
    VERIFIER_PRINCIPAL,
    ProtocolTrace,
    TheoremVerdict,
    TraceEvent,
    check_theorems,
)


def read_text(tmp_path, text: str) -> ProtocolTrace:
    """The trace read from a file that holds text, UTF-8 encoded."""
    path = tmp_path / "text.log"
    path.write_bytes(text.encode())
    return ProtocolTrace.read(path)


def text_of(trace: ProtocolTrace) -> str:
    """The text a trace file holds: each of the trace's lines with its
    newline."""
    return "".join(f"{line}\n" for line in trace.lines())


# ---------------------------------------------------------------------------
# trace events
# ---------------------------------------------------------------------------

def test_trace_event_line_round_trip():
    event = TraceEvent(
        "node0000/tpm", "sign", peer="-",
        digest=crypto.sha256(b"x"), tag="total-report", ok=True,
        contents=("session:" + "ab" * 32, "quote:" + "cd" * 32))
    line = event.line(3)
    assert line.split()[4] == crypto.sha256(b"x").hex()
    parsed = TraceEvent.from_line(line, 3, {})
    assert parsed == event
    assert parsed.digest == crypto.sha256(b"x")


def test_trace_event_defaults_round_trip():
    event = TraceEvent("verifier", "new")
    parsed = TraceEvent.from_line(event.line(0), 0, {})
    assert parsed == event
    assert parsed.peer == "-"
    assert parsed.digest == b""
    assert parsed.ok is None
    assert parsed.contents == ()


@pytest.mark.parametrize("line, index, reason", [
    ("0 verifier forge - - - - -", 0, "unknown event kind 'forge'"),
    ("3 verifier new - - - - -", 2, "contiguous, got 3 at position 2"),
    # every column parses, and the line still is not what line() writes
    ("01 verifier new - - - - -", 1, "not canonical"),
    # a digest column is "-" or the lowercase hex of whole bytes
    ("0 verifier new - zz - - -", 0, "hex of whole bytes: 'zz'"),
    ("0 verifier new - abc - - -", 0, "hex of whole bytes: 'abc'"),
    ("0 verifier new - AB - - -", 0, "not canonical"),
], ids=["unknown-kind", "index-not-position", "non-canonical",
        "digest-not-hex", "digest-odd-length", "digest-upper-case"])
def test_trace_line_decode_errors(line, index, reason):
    with pytest.raises(DecodeError, match=reason):
        TraceEvent.from_line(line, index, {})


def test_trace_text_round_trip_and_digest(tmp_path, cluster):
    trace = cluster.trace
    assert len(trace.events) > 0
    text = text_of(trace)
    parsed = read_text(tmp_path, text)
    assert parsed.events == trace.events
    assert parsed.digest() == trace.digest()


def test_trace_read_rejects_gap(tmp_path, cluster):
    lines = cluster.trace.lines()
    gap = lines[:2] + lines[3:]
    bad_index = lines + ["x verifier send - - - - -"]
    bad_ok = lines + [f"{len(lines)} verifier send - - - 2 -"]
    plus_index = lines + [f"+{len(lines)} verifier send - - - - -"]
    for broken in (gap, bad_index, bad_ok, plus_index):
        with pytest.raises(DecodeError):
            read_text(tmp_path, "\n".join(broken) + "\n")


def test_trace_read_accepts_only_canonical_text(tmp_path, cluster):
    text = text_of(cluster.trace)
    first, rest = text.split("\n", 1)
    for broken in (first + "\n\n" + rest,         # blank line
                   text + "  \t\n",               # whitespace-only line
                   text.replace("\n", "\r\n"),    # CRLF line endings
                   text[:-1],                      # no final newline
                   # a line break other than "\n" stays inside its line
                   first + "\r" + rest,
                   first + "\x0c" + rest,
                   first + "\x1e" + rest,
                   # a principal with a non-ASCII letter
                   text.replace("node0000", "nodé0000", 1)):
        with pytest.raises(DecodeError):
            read_text(tmp_path, broken)
    assert read_text(tmp_path, text).events == cluster.trace.events
    assert read_text(tmp_path, "").events == []


def test_trace_write_read(tmp_path, cluster):
    path = tmp_path / "trace.log"
    cluster.trace.write(path)
    loaded = ProtocolTrace.read(path)
    assert loaded.digest() == cluster.trace.digest()


def test_trace_reader_checks_lines_and_holds_each_value_once(
        tmp_path, monkeypatch, cluster):
    # each line is checked as it is parsed, so no reader renders lines();
    # every principal, kind, peer, digest, tag and content label of the
    # trace read is one object per value, across all its events
    path = tmp_path / "trace.log"
    cluster.trace.write(path)

    def all_lines(self):
        raise AssertionError("the reader rendered lines()")

    monkeypatch.setattr(ProtocolTrace, "lines", all_lines)
    loaded = ProtocolTrace.read(path)
    assert loaded.events == cluster.trace.events
    assert loaded.digest() == cluster.trace.digest()
    objects: dict[str | bytes, set[int]] = {}
    for event in loaded.events:
        for value in (event.principal, event.kind, event.peer,
                      event.digest, event.tag, *event.contents):
            objects.setdefault(value, set()).add(id(value))
    assert len(objects) > 20
    assert {value: len(ids) for value, ids in objects.items()
            if len(ids) > 1} == {}


def test_digest_and_write_stream_exactly_the_text(tmp_path, honest31):
    # digest() and write() take the text a line at a time; each gives
    # what the whole text gives, final newline and empty trace included
    honest = ProtocolTrace(honest31)
    traces = [ProtocolTrace(), honest,
              read_text(tmp_path, text_of(honest))]
    traces += [ProtocolTrace(edit(honest31))
               for _title, edit, _violated in harness.FAULT_TRACES.values()]
    path = tmp_path / "trace.log"
    for trace in traces:
        text = text_of(trace)
        assert text.endswith("\n") == bool(trace.events)
        assert trace.digest() == crypto.sha256(text.encode())
        trace.write(path)
        assert path.read_bytes() == text.encode()
    assert traces[0].digest() == crypto.sha256(b"")
    assert honest.digest().hex().startswith("8ae10792")


# ---------------------------------------------------------------------------
# theorem checking
# ---------------------------------------------------------------------------

def attested_trace(cluster):
    trace = ProtocolTrace(cluster.trace.events)
    protocol.run_attest_composite(
        cluster.actor(0), cluster.verifier_svc, cluster.channels, trace,
        policy_id=cluster.policy_id)
    return trace


def test_honest_trace_passes_all_theorems(cluster):
    verdicts = check_theorems(attested_trace(cluster))
    assert set(verdicts) == {"cert-provenance", "token-provenance",
                             "attest-order"}
    for verdict in verdicts.values():
        assert verdict.ok, verdict.line()


def test_theorem_verdict_lines_are_parseable(cluster):
    for verdict in check_theorems(attested_trace(cluster)).values():
        line = verdict.line()
        assert line.split()[0] == verdict.name
        assert line.split()[1] == "pass"


def test_checker_works_from_serialized_trace(tmp_path, cluster):
    text = text_of(attested_trace(cluster))
    reloaded = read_text(tmp_path, text)
    verdicts = check_theorems(reloaded)
    assert all(v.ok for v in verdicts.values())


def _edit_kind(before: list, after: list) -> str | None:
    """How after differs from before in one event: "deletion", "move",
    or the one field of one event that changed; None for anything else."""
    both = min(len(before), len(after))
    head = next((i for i in range(both) if before[i] != after[i]), both)
    tail = next((i for i in range(both - head)
                 if before[-1 - i] != after[-1 - i]), both - head)
    was, now = before[head:len(before) - tail], after[head:len(after) - tail]
    if len(was) == 1 and not now:
        return "deletion"
    if len(was) == len(now) == 1:
        changed = [f.name for f in dataclasses.fields(TraceEvent)
                   if getattr(was[0], f.name) != getattr(now[0], f.name)]
        return changed[0] if len(changed) == 1 else None
    if len(was) == len(now) > 1 and now in (was[1:] + was[:1],
                                             was[-1:] + was[:-1]):
        return "move"
    return None


_FAULT_EDITS = {"forged-cert": "principal", "forged-token": "deletion",
                "reordered-sign": "move", "unvouched-identity": "deletion"}


@pytest.mark.parametrize("seed,nodes", [(31, 2), (45, 2), (99, 3)],
                         ids=["31x2", "45x2", "99x3"])
def test_each_fault_is_one_edit_failing_only_its_property(seed, nodes):
    honest = harness.run_scenario(seed, nodes=nodes).trace.events
    assert all(v.ok for v in check_theorems(ProtocolTrace(honest)).values())
    assert _FAULT_EDITS.keys() == harness.FAULT_TRACES.keys()
    for name, (_title, edit, violated) in harness.FAULT_TRACES.items():
        events = edit(honest)
        assert _edit_kind(honest, events) == _FAULT_EDITS[name], name
        verdicts = check_theorems(ProtocolTrace(events))
        assert [n for n, v in verdicts.items() if not v.ok] == [violated], name
        assert verdicts[violated].witness, name


@pytest.fixture(scope="module")
def honest31():
    return harness.run_scenario(31, nodes=2).trace.events


def _fault(honest, name):
    """The named gallery fault as an edit of honest, with its verdicts."""
    _title, edit, _violated = harness.FAULT_TRACES[name]
    events = edit(honest)
    return events, check_theorems(ProtocolTrace(events))


def test_forged_cert_fails_exactly_cert_provenance(honest31):
    events, verdicts = _fault(honest31, "forged-cert")
    assert not verdicts["cert-provenance"].ok
    assert verdicts["token-provenance"].ok
    assert verdicts["attest-order"].ok
    # the witness holds the certificate the re-attributed sign produced
    forged = next(e for e in events if e.principal == "mallory")
    (held,) = (events[i] for i in verdicts["cert-provenance"].witness)
    assert (forged.kind, forged.tag) == ("sign", "cert-vcek")
    assert held.kind == "decrypt" and held.digest == forged.digest


def test_forged_token_fails_exactly_token_provenance(honest31):
    events, verdicts = _fault(honest31, "forged-token")
    assert verdicts["cert-provenance"].ok
    assert not verdicts["token-provenance"].ok
    assert verdicts["attest-order"].ok
    # the witness holds the token whose verifier sign was deleted
    deleted = next(e for e in honest31 if e not in events)
    (held,) = (events[i] for i in verdicts["token-provenance"].witness)
    assert (deleted.principal, deleted.kind, deleted.tag) == (
        VERIFIER_PRINCIPAL, "sign", "token")
    assert held.kind == "decrypt" and held.digest == deleted.digest


def test_reordered_sign_fails_exactly_attest_order(honest31):
    events, verdicts = _fault(honest31, "reordered-sign")
    assert verdicts["cert-provenance"].ok
    assert verdicts["token-provenance"].ok
    assert not verdicts["attest-order"].ok
    # the witness is the evidence sign moved ahead of its request
    assert verdicts["attest-order"].witness == (0,)
    assert (events[0].kind, events[0].tag) == ("sign", "total-report")


@pytest.mark.parametrize("tag,key,label", [
    ("registration-evidence", "identity-pub", "cert-identity"),
    ("vendor-chain", "vcek-pub", "cert-vcek"),
])
def test_one_nodes_check_does_not_vouch_for_another(cluster2, tag, key,
                                                    label):
    # the enrollment trace without the owner CA's check of the second
    # node's key: the first node's check of the same tag names another key
    actor = cluster2.actor(1)
    public = actor.identity if key == "identity-pub" else actor.vcek
    named = f"{key}:{crypto.sha256(public.public_bytes).hex()}"
    trace = ProtocolTrace(
        e for e in cluster2.trace.events
        if e.kind != "verify" or named not in e.contents)
    assert len(trace.events) == len(cluster2.trace.events) - 1
    verdicts = check_theorems(trace)
    assert verdicts["token-provenance"].ok and verdicts["attest-order"].ok
    verdict = verdicts["cert-provenance"]
    sign, decrypt = (trace.events[i] for i in verdict.witness)
    assert not verdict.ok
    assert (sign.principal, sign.kind, sign.tag) == (OCA_PRINCIPAL, "sign",
                                                     label)
    assert decrypt.kind == "decrypt" and decrypt.principal.startswith(
        actor.node_id)
    assert verdict.reason == (f"{OCA_PRINCIPAL} signed {label} "
                              f"{sign.digest.hex()[:16]} without prior {tag} "
                              "evidence")
    if tag == "registration-evidence":
        _title, edit, _violated = harness.FAULT_TRACES["unvouched-identity"]
        assert trace.events == edit(cluster2.trace.events)


def test_an_edited_event_list_judges_by_position(tmp_path, cluster):
    # a move, a deletion and a duplicate of one event of an honest trace
    # judge as the edited trace read back from its own text
    honest = attested_trace(cluster).events
    sign = next(i for i, e in enumerate(honest)
                if e.kind == "sign" and e.tag == "total-report")
    edits = {"move": [honest[sign], *honest[:sign], *honest[sign + 1:]],
             "deletion": honest[1:],
             "duplicate": [*honest, honest[sign]]}
    for name, events in edits.items():
        trace = ProtocolTrace(events)
        reread = read_text(tmp_path, text_of(trace))
        assert reread.events == events, name
        assert check_theorems(trace) == check_theorems(reread), name
    # deleting the first event moves every witness one place earlier
    verdicts = check_theorems(ProtocolTrace(honest))
    shifted = check_theorems(ProtocolTrace(honest[1:]))
    for name, verdict in verdicts.items():
        assert verdict.ok and verdict.witness, name
        assert shifted[name] == dataclasses.replace(
            verdict, witness=tuple(i - 1 for i in verdict.witness)), name
    assert not check_theorems(ProtocolTrace(edits["move"]))["attest-order"].ok


_CERT_HEX = "ab" * 32
_VCEK_KEY = f"vcek-pub:{'12' * 32}"


def _vcek_cert_trace(tmp_path, holder: str) -> ProtocolTrace:
    """The owner CA checks a vendor chain for a chip key, signs a VCEK
    certificate for that key and sends it to node0001's TEE; then the
    holder decrypts it."""
    cert = f"cert-vcek:{_CERT_HEX}"
    return read_text(
        tmp_path,
        f"0 owner-ca verify - {'cd' * 32} vendor-chain 1 {_VCEK_KEY}\n"
        f"1 owner-ca sign - {_CERT_HEX} cert-vcek - {cert},{_VCEK_KEY}\n"
        f"2 owner-ca send node0001/tee {'ef' * 32} cert-vcek-info - {cert}\n"
        f"3 {holder} decrypt - {_CERT_HEX} cert-vcek-info - {cert}\n")


def test_base_principal_folds_engine_names(tmp_path):
    # a send to one engine of a node justifies the node and each engine
    for holder in ("node0001/tee", "node0001/tpm", "node0001"):
        verdict = check_theorems(
            _vcek_cert_trace(tmp_path, holder))["cert-provenance"]
        assert verdict.ok and verdict.witness == (3,), holder
    verdict = check_theorems(
        _vcek_cert_trace(tmp_path, "node0002/tee"))["cert-provenance"]
    assert verdict == TheoremVerdict(
        "cert-provenance", False,
        f"owner-ca never sent cert-vcek {_CERT_HEX[:16]} to node0002", (3,))


def test_prior_check_vouches_only_before_for_the_key_it_names(tmp_path):
    # the vendor-chain check names another chip key; or the certificate,
    # not under the key's label; or it comes after the sign
    lines = _vcek_cert_trace(tmp_path, "node0001/tee").lines()
    other_key = lines[0].replace(_VCEK_KEY, f"vcek-pub:{'34' * 32}")
    the_cert = lines[0].replace(_VCEK_KEY, f"cert-vcek:{_CERT_HEX}")
    for edited, sign in (([other_key] + lines[1:], 1),
                         ([the_cert] + lines[1:], 1),
                         ([lines[1], lines[0]] + lines[2:], 0)):
        text = "".join(f"{i} {line.split(' ', 1)[1]}\n"
                       for i, line in enumerate(edited))
        verdict = check_theorems(
            read_text(tmp_path, text))["cert-provenance"]
        assert verdict == TheoremVerdict(
            "cert-provenance", False,
            f"owner-ca signed cert-vcek {_CERT_HEX[:16]} without prior "
            "vendor-chain evidence", (sign, 3)), text


def _early_sign_trace():
    """One node attested twice (tpm-tee, build_cluster(5, 1)), its second
    total-report sign moved before its attest-request receipt and naming
    the first, requested session too; and the session it was made for."""
    cluster = harness.build_cluster(5, 1)
    trace = ProtocolTrace()
    for _ in range(2):
        protocol.run_attest_composite(
            cluster.actor(0), cluster.verifier_svc, cluster.channels, trace,
            policy_id=cluster.policy_id, direction="tpm-tee")
    events = trace.events
    first, second = (e for e in events
                     if e.kind == "sign" and e.tag == "total-report")
    receipt = [e for e in events if e.kind == "receive"
               and e.tag == "attest-request"][1]
    session = next(c for c in second.contents if c.startswith("session:"))
    assert session in receipt.contents
    earlier = next(c for c in first.contents if c.startswith("session:"))
    moved = dataclasses.replace(second, contents=(*second.contents, earlier))
    at = events.index(receipt)
    early = ProtocolTrace(events[:at] + [moved] + [
        e for e in events[at:] if e is not second])
    return early, session.partition(":")[2]


def test_evidence_needs_a_request_for_every_session_it_names():
    # naming an earlier, requested session does not excuse evidence
    # signed before the request for its own session arrived
    trace, session = _early_sign_trace()
    assert check_theorems(trace)["attest-order"] == TheoremVerdict(
        "attest-order", False, f"node0000 signed evidence for session "
        f"{session[:16]} before receiving the request", (22,))


def _second_sign_trace(tag: str):
    """The honest run_scenario(31) trace with a copy of its first sign of
    tag appended: a second evidence signature (total-report) or a second
    token (token) for a session that has one; and that first sign."""
    trace = harness.run_scenario(31).trace
    first = next(e for e in trace.events if e.kind == "sign" and e.tag == tag)
    return ProtocolTrace([*trace.events, first]), first


def test_each_session_is_answered_by_one_evidence_signature():
    # Lowe's injective agreement: a request buys at most one evidence
    # signature, so a copy of an answered session's sign fails
    trace, first = _second_sign_trace("total-report")
    session = next(c for c in first.contents if c.startswith("session:"))
    assert check_theorems(trace)["attest-order"] == TheoremVerdict(
        "attest-order", False, "node0000 signed second evidence for "
        f"session {session[8:24]}",
        (trace.events.index(first), len(trace.events) - 1))


def test_each_session_is_given_one_token():
    # injective agreement for tokens: a session's one appraisal buys one
    # token, so a copy of a session's token sign fails
    trace, first = _second_sign_trace("token")
    session = next(c for c in first.contents if c.startswith("session:"))
    verdicts = check_theorems(trace)
    assert verdicts["attest-order"] == TheoremVerdict(
        "attest-order", False, f"{VERIFIER_PRINCIPAL} signed a second token "
        f"for session {session[8:24]}",
        (trace.events.index(first), len(trace.events) - 1))
    assert verdicts["cert-provenance"].ok and verdicts["token-provenance"].ok


# The exact verdict lines, reasons and witnesses included, that
# check_theorems gives the honest run_scenario(31) trace and each fault
# of the gallery, an edit of that trace.
_PINNED_VERDICT_LINES = {
    "forged-cert": (
        "cert-provenance FAIL witness=6 node0000 holds cert-vcek "
        "22131b2bdb54129d never signed by owner-ca",
        "token-provenance pass witness=89,109 2 token possessions justified",
        "attest-order pass witness=80,100 2 evidence signatures in order"),
    "forged-token": (
        "cert-provenance pass witness=6,22,34,41,57,69 6 certificate "
        "possessions justified",
        "token-provenance FAIL witness=88 node0000 holds token "
        "5fd0220990d7ee68 never signed by verifier",
        "attest-order pass witness=80,99 2 evidence signatures in order"),
    "reordered-sign": (
        "cert-provenance pass witness=7,23,35,42,58,70 6 certificate "
        "possessions justified",
        "token-provenance pass witness=89,109 2 token possessions justified",
        "attest-order FAIL witness=0 node0000 signed evidence for session "
        "711d762b310276c2 before receiving the request"),
    "unvouched-identity": (
        "cert-provenance FAIL witness=65,68 owner-ca signed cert-identity "
        "9701ba1bd800d185 without prior registration-evidence evidence",
        "token-provenance pass witness=88,108 2 token possessions justified",
        "attest-order pass witness=79,99 2 evidence signatures in order"),
    "honest": (
        "cert-provenance pass witness=6,22,34,41,57,69 6 certificate "
        "possessions justified",
        "token-provenance pass witness=89,109 2 token possessions justified",
        "attest-order pass witness=80,100 2 evidence signatures in order"),
}


@pytest.mark.parametrize("name", [*harness.FAULT_TRACES, "honest"])
def test_checker_prints_the_pinned_verdict_lines(name):
    trace = harness.run_scenario(31).trace
    if name != "honest":
        trace = ProtocolTrace(
            harness.FAULT_TRACES[name][1](trace.events))
    lines = tuple(v.line() for v in check_theorems(trace).values())
    assert lines == _PINNED_VERDICT_LINES[name]


# ---------------------------------------------------------------------------
# differential check against the quadratic reference checker
# ---------------------------------------------------------------------------

# The checker before it became one indexed pass: every possession and
# every evidence signature rescans all earlier events. Kept as the oracle
# the single-pass check_theorems must match verdict for verdict.

_ORACLE_CERT_LABELS = ("cert-vcek", "cert-aik", "cert-identity")

# label -> the owner CA's check, and the label of the key both it and the
# certificate's sign must name
_ORACLE_CERT_EVIDENCE = {
    "cert-vcek": ("verify", "vendor-chain", "vcek-pub"),
    "cert-aik": ("match", "credential-nonce", "aik-pub"),
    "cert-identity": ("verify", "registration-evidence", "identity-pub"),
}


def base_principal(principal: str) -> str:
    """Platform identity of a principal: engines fold into their node."""
    return principal.split("/", 1)[0]


def _column(event) -> str:
    """The text of an event's digest column."""
    return event.digest.hex() or "-"


def _labeled(event, label: str) -> list[str]:
    """Hex digests an event carries under a given content label."""
    prefix = label + ":"
    return [c[len(prefix):] for c in event.contents if c.startswith(prefix)]


def _oracle_check_theorems(trace, *, oca=OCA_PRINCIPAL,
                           verifier=VERIFIER_PRINCIPAL):
    events = trace.events
    return {
        "cert-provenance": _check_cert_provenance(events, oca),
        "token-provenance": _check_token_provenance(events, verifier),
        "attest-order": _check_attest_order(events, verifier),
    }


def _possessions(events, labels) -> list[tuple[int, TraceEvent, str, str]]:
    """(index, event, label, hex) for every labeled value a principal
    takes possession of by decrypting."""
    found = []
    for index, event in enumerate(events):
        if event.kind != "decrypt":
            continue
        for label in labels:
            for hexdigest in _labeled(event, label):
                found.append((index, event, label, hexdigest))
    return found


def _check_cert_provenance(events, oca) -> TheoremVerdict:
    witnesses = []
    for index, event, label, hexdigest in _possessions(events,
                                                       _ORACLE_CERT_LABELS):
        holder = base_principal(event.principal)
        earlier = events[:index]
        signed = [i for i, e in enumerate(earlier)
                  if e.kind == "sign" and e.principal == oca
                  and _column(e) == hexdigest]
        if not signed:
            return TheoremVerdict(
                "cert-provenance", False,
                f"{holder} holds {label} {hexdigest[:16]} never signed by {oca}",
                (index,))
        sign_index = signed[0]
        evidence_kind, evidence_tag, key = _ORACLE_CERT_EVIDENCE[label]
        # the check must name a key that the first sign certifies
        keys = {f"{key}:{k}" for k in _labeled(events[sign_index], key)}
        vouched = any(e.kind == evidence_kind and e.tag == evidence_tag
                      and e.principal == oca and e.ok
                      and keys.intersection(e.contents)
                      for e in events[:sign_index])
        if not vouched:
            return TheoremVerdict(
                "cert-provenance", False,
                f"{oca} signed {label} {hexdigest[:16]} without prior "
                f"{evidence_tag} evidence", (sign_index, index))
        delivered = any(e.kind == "send" and e.principal == oca
                        and base_principal(e.peer) == holder
                        and f"{label}:{hexdigest}" in e.contents
                        for e in earlier)
        if not delivered:
            return TheoremVerdict(
                "cert-provenance", False,
                f"{oca} never sent {label} {hexdigest[:16]} to {holder}",
                (index,))
        witnesses.append(index)
    return TheoremVerdict("cert-provenance", True,
                          f"{len(witnesses)} certificate possessions justified",
                          tuple(witnesses))


def _check_token_provenance(events, verifier) -> TheoremVerdict:
    witnesses = []
    for index, event, _label, hexdigest in _possessions(events, ("token",)):
        holder = base_principal(event.principal)
        earlier = events[:index]
        signed = any(e.kind == "sign" and e.principal == verifier
                     and _column(e) == hexdigest for e in earlier)
        if not signed:
            return TheoremVerdict(
                "token-provenance", False,
                f"{holder} holds token {hexdigest[:16]} never signed by "
                f"{verifier}", (index,))
        delivered = any(e.kind == "send" and e.principal == verifier
                        and base_principal(e.peer) == holder
                        and f"token:{hexdigest}" in e.contents
                        for e in earlier)
        if not delivered:
            return TheoremVerdict(
                "token-provenance", False,
                f"{verifier} never sent token {hexdigest[:16]} to {holder}",
                (index,))
        witnesses.append(index)
    return TheoremVerdict("token-provenance", True,
                          f"{len(witnesses)} token possessions justified",
                          tuple(witnesses))


def _check_attest_order(events, verifier) -> TheoremVerdict:
    checked = []
    for index, event in enumerate(events):
        if event.kind == "sign" and event.tag == "token" \
                and event.principal != verifier:
            return TheoremVerdict(
                "attest-order", False,
                f"{event.principal} signed a token; only {verifier} may",
                (index,))
        if event.kind == "sign" and event.tag == "token":
            # and no session it names given a token by an earlier sign
            for session in _labeled(event, "session"):
                minted = [i for i, e in enumerate(events[:index])
                          if e.kind == "sign" and e.tag == "token"
                          and session in _labeled(e, "session")]
                if minted:
                    return TheoremVerdict(
                        "attest-order", False,
                        f"{verifier} signed a second token for session "
                        f"{session[:16]}", (minted[0], index))
            continue
        if event.kind != "sign" or event.tag != "total-report":
            continue
        prover = base_principal(event.principal)
        sessions = _labeled(event, "session")
        # every session the evidence names, and at least one, requested
        unrequested = [s for s in sessions if not any(
            e.kind == "receive" and e.tag == "attest-request"
            and base_principal(e.principal) == prover
            and e.peer == verifier and s in _labeled(e, "session")
            for e in events[:index])]
        if unrequested or not sessions:
            return TheoremVerdict(
                "attest-order", False,
                f"{prover} signed evidence for session "
                f"{(*unrequested, '?')[0][:16]} before receiving "
                f"the request", (index,))
        # and no session it names answered by an earlier evidence sign
        for session in sessions:
            answered = [i for i, e in enumerate(events[:index])
                        if e.kind == "sign" and e.tag == "total-report"
                        and session in _labeled(e, "session")]
            if answered:
                return TheoremVerdict(
                    "attest-order", False,
                    f"{prover} signed second evidence for session "
                    f"{session[:16]}", (answered[0], index))
        checked.append(index)
    return TheoremVerdict("attest-order", True,
                          f"{len(checked)} evidence signatures in order",
                          tuple(checked))


def _mutate(events, rng, pool):
    """One seeded edit of an event list: drop, duplicate, swap adjacent,
    move, or relabel one label:hex content."""
    events = list(events)
    pos = rng.randrange(len(events))
    op = rng.choice(("drop", "duplicate", "swap", "move", "relabel"))
    if op == "drop":
        del events[pos]
    elif op == "duplicate":
        events.insert(rng.randrange(len(events) + 1), events[pos])
    elif op == "swap" and pos + 1 < len(events):
        events[pos], events[pos + 1] = events[pos + 1], events[pos]
    elif op == "move":
        event = events.pop(pos)
        events.insert(rng.randrange(len(events) + 1), event)
    elif op == "relabel":
        with_contents = [i for i, e in enumerate(events) if e.contents]
        pos = rng.choice(with_contents)
        event = events[pos]
        which = rng.randrange(len(event.contents))
        _label, hexdigest = event.contents[which].split(":", 1)
        contents = list(event.contents)
        contents[which] = f"{rng.choice(pool)}:{hexdigest}"
        events[pos] = dataclasses.replace(event, contents=tuple(contents))
    return events


def test_trace_event_is_slotted_and_frozen():
    event = TraceEvent("verifier", "new")
    assert "__slots__" in vars(TraceEvent)
    assert not hasattr(event, "__dict__")
    edited = dataclasses.replace(event, contents=("session:ab",))
    assert edited.line(3) == "3 verifier new - - - - session:ab"
    assert edited == TraceEvent.from_line(edited.line(3), 3, {})
    assert event.contents == () and event != edited
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.kind = "sign"


def _with_decrypt(tmp_path, trace, principal, *contents) -> ProtocolTrace:
    """The trace, read back from its text with one decrypt appended."""
    event = TraceEvent(principal, "decrypt", tag="cert-vcek-info",
                       contents=contents)
    return read_text(tmp_path,
                     text_of(trace) + event.line(len(trace.events)) + "\n")


def _rare_checker_cases(tmp_path, trace, holder):
    """Traces that random edits of an honest trace rarely build: one
    decrypt holding two unsigned certificates, listed out of label
    order; one holding both an unsigned certificate and an unsigned
    token; one whose labels carry no ":" and so name no possession."""
    return {
        "two-certs": _with_decrypt(tmp_path, trace, holder,
                                   f"cert-aik:{'11' * 32}",
                                   f"cert-vcek:{'22' * 32}"),
        "cert-and-token": _with_decrypt(tmp_path, trace, holder,
                                        f"token:{'33' * 32}",
                                        f"cert-identity:{'44' * 32}"),
        "no-colon": _with_decrypt(tmp_path, trace, holder, "token",
                                  "cert-vcek"),
    }


def test_single_pass_checker_matches_quadratic_oracle(tmp_path, cluster2):
    honest = ProtocolTrace(cluster2.trace.events)
    for index, direction in ((0, "tpm-tee"), (1, "tee-tpm")):
        protocol.run_attest_composite(
            cluster2.actor(index), cluster2.verifier_svc, cluster2.channels,
            honest, policy_id=cluster2.policy_id, direction=direction)
    labels = sorted({c.split(":", 1)[0] for e in honest.events
                     for c in e.contents})
    rng = random.Random(20261018)
    # no content edit makes a node sign a token, so one case does it
    token_sign = next(i for i, e in enumerate(honest.events)
                      if e.kind == "sign" and e.tag == "token")
    node_signs_token = ProtocolTrace(
        honest.events[:token_sign]
        + [dataclasses.replace(honest.events[token_sign],
                               principal=cluster2.actor(0).agent)]
        + honest.events[token_sign + 1:])
    holder = cluster2.actor(0).agent
    rare = _rare_checker_cases(tmp_path, honest, holder)
    rare["early-sign-names-a-requested-session"] = _early_sign_trace()[0]
    rare["session-answered-twice"] = _second_sign_trace("total-report")[0]
    rare["session-given-two-tokens"] = _second_sign_trace("token")[0]
    traces = [honest, node_signs_token,
              *(ProtocolTrace(edit(honest.events))
                for _title, edit, _violated in harness.FAULT_TRACES.values()),
              *rare.values()]
    for _case in range(1500):
        events = honest.events
        for _edit in range(rng.randint(1, 3)):
            events = _mutate(events, rng, labels)
        traces.append(ProtocolTrace(events))
    failures = Counter()
    for trace in traces:
        verdicts = check_theorems(trace)
        assert verdicts == _oracle_check_theorems(trace), text_of(trace)
        failures.update(name for name, v in verdicts.items() if not v.ok)
    # every property must be tripped by some mutation, so the comparison
    # covers failure reasons and witnesses, not only passing verdicts
    assert all(failures[name] >= 20 for name in (
        "cert-provenance", "token-provenance", "attest-order")), failures
    # each rare case reaches what it is built for: within one event the
    # first failure follows the label order, one event fails both
    # provenance properties, a label without ":" names no possession,
    # evidence naming a requested session fails for its unrequested one,
    # and a second evidence sign or token sign for a session fails
    first = check_theorems(rare["two-certs"])["cert-provenance"]
    assert first.reason == (f"{holder} holds cert-vcek {'22' * 8} never "
                            f"signed by {OCA_PRINCIPAL}")
    both = check_theorems(rare["cert-and-token"])
    assert not both["cert-provenance"].ok and not both["token-provenance"].ok
    assert check_theorems(rare["no-colon"]) == \
        check_theorems(honest)
    assert not check_theorems(
        rare["early-sign-names-a-requested-session"])["attest-order"].ok
    assert "second evidence" in check_theorems(
        rare["session-answered-twice"])["attest-order"].reason
    assert "second token" in check_theorems(
        rare["session-given-two-tokens"])["attest-order"].reason
