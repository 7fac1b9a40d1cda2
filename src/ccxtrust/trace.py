"""Protocol trace and its audit: event model, codec and check_theorems.

The trace is the unit of analysis: trust-chain properties are stated
over event sequences and checked mechanically by check_theorems, so a
run either carries a complete justification for every credential that
changed hands or yields a concrete counterexample event. An event's
index is its position in the trace and is stored nowhere else, so any
list of events is a trace, and an edited list judges by its positions.

It imports only the standard library and errors, so reading and judging
a trace file (`ccxtrust check-trace`) loads no cryptography.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DecodeError

OCA_PRINCIPAL = "owner-ca"
VERIFIER_PRINCIPAL = "verifier"

EVENT_KINDS = frozenset(
    ("new", "send", "receive", "decrypt", "sign", "verify", "match"))

_OK_COLUMN = {"-": None, "0": False, "1": True}


# ---------------------------------------------------------------------------
# trace model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One protocol step. contents carries "label:hex" pairs naming the
    values the step created, transferred, or exposed. An event's index is
    its position in its trace, which the trace supplies to line and
    from_line."""

    principal: str
    kind: str
    peer: str = "-"
    digest: str = "-"
    tag: str = "-"
    ok: bool | None = None
    contents: tuple[str, ...] = ()

    def line(self, index: int) -> str:
        ok = "-" if self.ok is None else str(int(self.ok))
        contents = ",".join(self.contents) if self.contents else "-"
        return (f"{index} {self.principal} {self.kind} {self.peer} "
                f"{self.digest} {self.tag} {ok} {contents}")

    @classmethod
    def from_line(cls, line: str, index: int,
                  strings: dict[str, str]) -> "TraceEvent":
        """Parse the line at position index of a trace: the inverse of
        line(index). Each string value the event keeps is looked up in
        strings, a table of one object per value that a reader keeps
        across the lines of a trace, and added to it when new."""
        shared = strings.setdefault
        parts = line.split()
        if len(parts) != 8:
            raise DecodeError(f"trace line needs 8 columns: {line!r}")
        column, principal, kind, peer, digest, tag, ok, contents = parts
        if kind not in EVENT_KINDS:
            raise DecodeError(f"unknown event kind {kind!r}")
        try:
            position = int(column)
        except ValueError:
            raise DecodeError(f"trace index must be an integer: {column!r}") from None
        if position != index:
            raise DecodeError(f"trace indices must be contiguous, got "
                              f"{position} at position {index}")
        if ok not in _OK_COLUMN:
            raise DecodeError(f"trace ok column must be -, 0 or 1: {ok!r}")
        event = cls(
            principal=shared(principal, principal), kind=shared(kind, kind),
            peer=shared(peer, peer), digest=shared(digest, digest),
            tag=shared(tag, tag), ok=_OK_COLUMN[ok],
            contents=() if contents == "-" else tuple(
                shared(label, label) for label in contents.split(",")))
        if event.line(index) != line:
            raise DecodeError(f"trace line is not canonical: {line!r}")
        return event


# emit fills a new event's slots through their descriptors, which skips
# the frozen __init__'s object.__setattr__ call per field
(_set_principal, _set_kind, _set_peer, _set_digest, _set_tag, _set_ok,
 _set_contents) = (getattr(TraceEvent, name).__set__
                   for name in TraceEvent.__slots__)
_new_event = object.__new__


class ProtocolTrace:
    """Append-only event log for one or more protocol runs."""

    def __init__(self, events: Iterable[TraceEvent] = ()) -> None:
        self.events: list[TraceEvent] = list(events)

    def emit(self, principal: str, kind: str, *, peer: str = "-",
             digest: bytes | str = "-", tag: str = "-",
             ok: bool | None = None,
             contents: tuple[str, ...] = ()) -> TraceEvent:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        if isinstance(digest, bytes):
            digest = digest.hex() if digest else "-"
        event = _new_event(TraceEvent)
        _set_principal(event, principal)
        _set_kind(event, kind)
        _set_peer(event, peer)
        _set_digest(event, digest)
        _set_tag(event, tag)
        _set_ok(event, ok)
        _set_contents(event, tuple(contents))
        self.events.append(event)
        return event

    def lines(self) -> list[str]:
        return [event.line(index) for index, event in enumerate(self.events)]

    def digest(self) -> bytes:
        # digest and write take each line with its newline, never the
        # whole text; crypto is imported here, its one use in this module
        from . import crypto
        hasher = crypto.sha256_hasher()
        for index, event in enumerate(self.events):
            hasher.update(f"{event.line(index)}\n".encode())
        return hasher.finalize()

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            for index, event in enumerate(self.events):
                fh.write(f"{event.line(index)}\n")

    @classmethod
    def read(cls, path) -> "ProtocolTrace":
        """The trace whose lines() the file holds, each with its newline,
        judged a line at a time as it is read, with equal values parsed to
        one string object. Any other file, such as one with blank lines,
        CRLF endings, a missing final newline or a non-ASCII byte, raises
        DecodeError."""
        strings: dict[str, str] = {}
        events = []
        # a binary file's lines end at b"\n" alone, and latin-1 maps every
        # byte to one character; from_line refuses an empty line and any
        # other line break left inside a line
        with open(path, "rb") as fh:
            for index, raw in enumerate(fh):
                line = raw.decode("latin-1")
                if not line.isascii():
                    raise DecodeError("trace text must be ASCII")
                events.append(TraceEvent.from_line(line.removesuffix("\n"),
                                                   index, strings))
                if not line.endswith("\n"):
                    raise DecodeError("trace text must end in a newline")
        return cls(events)

    def verifier_visible_sends(self) -> int:
        """Protocol messages a network observer at the verifier sees."""
        return sum(1 for e in self.events if e.kind == "send"
                   and VERIFIER_PRINCIPAL in (e.principal, e.peer))


# ---------------------------------------------------------------------------
# trace-level trust properties
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremVerdict:
    name: str
    ok: bool
    reason: str
    witness: tuple[int, ...] = ()

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        witness = ",".join(str(i) for i in self.witness) if self.witness else "-"
        return f"{self.name} {status} witness={witness} {self.reason}"


# The possession rule: label -> (property, signer, and the signer's own
# successful (kind, tag, key label) check, or None). A node's decrypt of
# label:hex follows the signer's sign of hex and its send of label:hex
# to that node; the check precedes the sign and names, under the key
# label, a key the sign names, so one node's check never vouches for
# another's certificate. The TEE-issued platform key cert is no row: no
# owner CA signature ever exists for it.
POSSESSION_RULES = {
    "cert-vcek": ("cert-provenance", OCA_PRINCIPAL,
                  ("verify", "vendor-chain", "vcek-pub")),
    "cert-aik": ("cert-provenance", OCA_PRINCIPAL,
                 ("match", "credential-nonce", "aik-pub")),
    "cert-identity": ("cert-provenance", OCA_PRINCIPAL,
                      ("verify", "registration-evidence", "identity-pub")),
    "token": ("token-provenance", VERIFIER_PRINCIPAL, None),
}

_PASS_REASONS = {
    "cert-provenance": "certificate possessions justified",
    "token-provenance": "token possessions justified",
    "attest-order": "evidence signatures in order",
}


def check_theorems(trace: ProtocolTrace) -> dict[str, TheoremVerdict]:
    """Check the three trust properties over a trace.

    cert-provenance: whoever holds an owner-CA certificate got it from a
    CA that signed it after its own successful check of the evidence for
    the key the certificate certifies, and that sent it to the holder.
    token-provenance: whoever holds an attestation token got it from the
    verifier, which signed it first. attest-order: evidence names a
    session, and the platform received the verifier's request for each
    session it names before signing it; no session is answered by two
    evidence signatures, nor given two tokens (Lowe's injective
    agreement, CSFW 1997); nobody but the verifier signs a token.

    Each is a PCL-style precedence claim (Datta, Derek, Mitchell and
    Roy, ENTCS 2007) checked by one forward pass, linear in the events:
    each sign and decrypt is judged against indexes of earlier events,
    then indexed. An event's index, and so each witness, is its
    position. Each property reports its first failure in event order,
    and within one event in row order.
    """
    verifier = VERIFIER_PRINCIPAL
    events = trace.events
    # per signer, its first sign of each digest, and its sends as
    # (holder node, content)
    signed: dict[str, dict[str, int]] = {
        signer: {} for _, signer, _ in POSSESSION_RULES.values()}
    sent: dict[str, set[tuple[str, str]]] = {s: set() for s in signed}
    # per (signer, kind, tag) of a rule's check: the key label, and the
    # check's first success naming each key under it
    checked: dict[tuple[str, str, str], tuple[str, dict[str, int]]] = {}
    justified: dict[str, list[int]] = {name: [] for name in _PASS_REASONS}
    rules = {}
    for rank, (label, (name, signer, check)) in enumerate(
            POSSESSION_RULES.items()):
        vouches = evidence = None
        if check:
            kind, evidence, key = check
            vouches = checked.setdefault((signer, kind, evidence),
                                         (key + ":", {}))[1]
        rules[label] = (rank, name, signer, signed[signer], sent[signer],
                        vouches, evidence, justified[name].append)
    rule_of = rules.get
    checkers = {signer for signer, _, _ in checked}
    # the receipts of the verifier's attest-requests, as (node, content),
    # the evidence sign that answered each session content, and the token
    # sign that closed it
    requested: set[tuple[str, str]] = set()
    answered: dict[str, int] = {}
    minted: dict[str, int] = {}
    failed: dict[str, TheoremVerdict] = {}
    in_order = justified["attest-order"].append
    misses: list[tuple] = []

    def fail(name: str, reason: str, *witness: int) -> None:
        failed.setdefault(name, TheoremVerdict(name, False, reason, witness))

    for index, event in enumerate(events):
        kind, principal = event.kind, event.principal
        if kind == "send":
            if principal in sent:
                sends, node = sent[principal], event.peer.partition("/")[0]
                for content in event.contents:
                    sends.add((node, content))
        elif kind == "receive":
            if event.tag == "attest-request" and event.peer == verifier:
                node = principal.partition("/")[0]
                for content in event.contents:
                    requested.add((node, content))
        elif kind == "sign":
            tag = event.tag
            if tag == "total-report":
                node = principal.partition("/")[0]
                unrequested = "?"   # the first session not requested
                twice = None        # the first one an earlier sign answered
                for content in event.contents:
                    if content.startswith("session:"):
                        if (node, content) not in requested:
                            unrequested = content[8:]
                            break
                        unrequested = None
                        # a failing sign's sessions are recorded too; the
                        # property has failed then, so they change nothing
                        if answered.setdefault(content, index) != index:
                            twice = twice or content
                if unrequested is not None:
                    fail("attest-order", f"{node} signed evidence for "
                         f"session {unrequested[:16]} before receiving "
                         "the request", index)
                elif twice is not None:
                    fail("attest-order", f"{node} signed second evidence "
                         f"for session {twice[8:24]}", answered[twice], index)
                else:
                    in_order(index)
            elif tag == "token":
                if principal != verifier:
                    fail("attest-order",
                         f"{principal} signed a token; only {verifier} may",
                         index)
                for content in event.contents:
                    if content.startswith("session:") \
                            and minted.setdefault(content, index) != index:
                        fail("attest-order", f"{verifier} signed a second "
                             f"token for session {content[8:24]}",
                             minted[content], index)
            if principal in signed:
                signed[principal].setdefault(event.digest, index)
        elif kind == "decrypt":
            node = principal.partition("/")[0]
            for content in event.contents:
                label, colon, value = content.partition(":")
                rule = rule_of(label)
                if rule is None or not colon:
                    continue
                (rank, name, signer, signs, sends, vouches, evidence,
                 justify) = rule
                at = signs.get(value)
                if at is None:
                    misses.append((rank, name, f"{node} holds {label} "
                                   f"{value[:16]} never signed by {signer}",
                                   index))
                    continue
                if vouches is not None:
                    for held in events[at].contents:
                        if held in vouches and vouches[held] < at:
                            break
                    else:
                        misses.append((rank, name, f"{signer} signed {label} "
                                       f"{value[:16]} without prior "
                                       f"{evidence} evidence", at, index))
                        continue
                if (node, content) not in sends:
                    misses.append((rank, name, f"{signer} never sent {label} "
                                   f"{value[:16]} to {node}", index))
                    continue
                justify(index)
            if misses:
                misses.sort(key=lambda miss: miss[0])
                for _rank, *miss in misses:
                    fail(*miss)
                misses.clear()
        elif event.ok and principal in checkers:
            check = checked.get((principal, kind, event.tag))
            if check is not None:
                key, vouches = check
                for content in event.contents:
                    if content.startswith(key) and content not in vouches:
                        vouches[content] = index
    return {name: failed.get(name) or TheoremVerdict(
                name, True, f"{len(justified[name])} {reason}",
                tuple(justified[name]))
            for name, reason in _PASS_REASONS.items()}
