"""The owner CA against a reference model of its contract.

Seeded random walks drive one OwnerCa through TEE registration (its own
chip and another one), credential-activation challenges (right, wrong,
replayed, unknown and expired answers), reference values (honest, a
wrong launch measurement, a TCB floor above the node's), node
registration (honest evidence and each evidence fault), revocation and
clock ticks. A model of a few dicts predicts every outcome: the value a
call returns, or the type of the exception it raises. After each step
the two must agree, and after the walk so must snapshot() and
revocation_list(). A failing walk prints its seed and its operations as
a list that replays it:

    PYTHONPATH=src:tests python -c \\
        "import test_owner_ca_model as m; m.run_walk([...])"
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

from ccxtrust import crypto, owner_ca, tee, tpm
from ccxtrust.errors import (
    BaselineRejected,
    ChainInvalid,
    ChallengeFailed,
    NodeRevoked,
    NodeUnknown,
    NotInitialized,
    SessionInvalid,
)
from test_owner_ca import CHIP, Rig, bound_to

NODES = ("n0", "n1")
CHIPS = (CHIP, crypto.sha256(b"chip-model-b"))
# the registration checks in their order: the vendor chain, then the
# rejections of verifier.appraise_layers
EVIDENCE = ("honest", "chain-invalid", "malformed", "nonce-mismatch",
            "identity-mismatch", "outer-signature-invalid",
            "measurement-mismatch", "tcb-rejected")
APPRAISAL = EVIDENCE[2:]
# a reference is honest or fails one signed claim of every honest report
REFERENCES = ("honest", "measurement-mismatch", "tcb-rejected")
TICKS = (1.0, owner_ca.CHALLENGE_TTL / 2, owner_ca.CHALLENGE_TTL + 1)
WALKS, STEPS = 60, 60


class Fixture:
    """A fresh CA on a Rig, with each chip's key and chain, one identity
    key, and every boot report a walk submits, signed once."""

    def __init__(self) -> None:
        self.rig = rig = Rig()
        self.vceks, self.chains = zip(*(rig.vendor.derive_vcek(chip, 7)
                                        for chip in CHIPS))
        self.identity = crypto.SigningKeyPair.generate("IDENTITY", rig.rng)
        self.ek_priv = tpm.loaded_keypair(
            rig.state, tpm.load_key(rig.state, rig.state.ek_blob))
        foreign = tee.TeeVendor(b"foreign-vendor-x")
        foreign_vcek, _ = foreign.derive_vcek(CHIP, 7)
        bound = bound_to(self.identity.public_bytes)
        other_tcb = dataclasses.replace(rig.tcb, kernel=crypto.sha256(b"k2"))
        self.evidence = {}
        for c, (vcek, chain) in enumerate(zip(self.vceks, self.chains)):
            def report(key=vcek, tcb=rig.tcb, data=bound, chip=CHIPS[c],
                       version=7, embedded=b""):
                return tee.guest_report(key, chip, tcb, version, data,
                                        embedded)
            # each fault fails its own check and passes every other one
            self.evidence[c] = {
                "honest": (report(), chain),
                "chain-invalid": (report(), dataclasses.replace(
                    chain, ark=foreign.ark_cert)),
                "malformed": (report(embedded=b"junk"), chain),
                "nonce-mismatch": (report(data=bytes(64)), chain),
                "identity-mismatch": (report(chip=crypto.sha256(b"?")),
                                      chain),
                "outer-signature-invalid": (report(key=foreign_vcek), chain),
                "measurement-mismatch": (report(tcb=other_tcb), chain),
                "tcb-rejected": (report(version=6), chain),
            }
        self.references = {
            "honest": rig.reference,
            "measurement-mismatch": dataclasses.replace(
                rig.reference, expected_measurement=bytes(32)),
            "tcb-rejected": dataclasses.replace(rig.reference,
                                                min_tcb_version=8)}
        self.subjects = {"VCEK": [v.public_bytes for v in self.vceks],
                         "AIK": rig.aik_blob.public,
                         "IDENTITY": self.identity.public_bytes}
        self.opened: list[tuple[bytes, crypto.Secret]] = []

    def call(self, op: tuple):
        """Run one operation on the CA; its return value, comparable with
        the model's."""
        ca, name, args = self.rig.ca, op[0], op[1:]
        if name == "register_tee":
            node, chip = args
            return _cert(ca.register_tee(self.chains[chip], node))
        if name == "aik_challenge":
            challenge = ca.aik_challenge(self.rig.aik_blob.public_area(),
                                         self.rig.state.ek_cert, args[0])
            answer = tpm.activate_credential(challenge, self.rig.aik_blob.name,
                                             self.ek_priv)
            self.opened.append((owner_ca.challenge_session_id(challenge),
                                answer))
            return "challenge"
        if name == "aik_answer":
            back, right = args
            if back > len(self.opened):
                return _cert(ca.aik_answer(crypto.sha256(b"never")[:16],
                                           crypto.Secret(bytes(32))))
            sid, answer = self.opened[-back]
            return _cert(ca.aik_answer(
                sid, answer if right else crypto.Secret(bytes(32))))
        if name == "set_trust_baseline":
            node, reference = args
            return ca.set_trust_baseline(node, self.references[reference])
        if name == "register_node":
            node, chip, kind = args
            report, chain = self.evidence[chip][kind]
            cert, _ = ca.register_node(node, report, chain,
                                       self.identity.public_bytes)
            return _cert(cert)
        if name == "revoke":
            return ca.revoke(args[0], "walk")
        if name == "tick":
            return self.rig.clock.advance(args[0])
        raise AssertionError(f"unknown operation {op!r}")


def _cert(cert: crypto.Certificate) -> tuple:
    return cert.role, cert.serial, cert.subject


@dataclasses.dataclass
class Node:
    chip: int
    certs: dict = dataclasses.field(default_factory=dict)   # role -> serial
    serials: list = dataclasses.field(default_factory=list)
    baseline: str | None = None   # the REFERENCES entry it was given


class Model:
    """The owner CA's contract as a few dicts. Each operation returns
    (outcome, branch): the outcome is the call's value or the exception
    type it raises, and the branch names the rule that decided it."""

    def __init__(self, now: float, subjects: dict) -> None:
        self.now = now
        self.subjects = subjects
        self.nodes: dict[str, Node] = {}
        self.revoked: set[str] = set()
        # challenges by opening order: [node, expires_at, consumed]
        self.challenges: dict[int, list] = {}
        self.opened = 0
        self.next_serial = 1
        self.records = 0

    def _issue(self, node_id: str, role: str, subject: bytes) -> tuple:
        serial = self.next_serial
        self.next_serial += 1
        node = self.nodes[node_id]
        node.serials.append(serial)
        node.certs[role] = serial
        self.records += 1
        return role, serial, subject

    def register_tee(self, node_id, chip):
        if node_id in self.revoked:
            return NodeRevoked, "register_tee:revoked"
        node = self.nodes.setdefault(node_id, Node(chip))
        if node.chip != chip:
            return ChainInvalid, "register_tee:another-chip"
        return (self._issue(node_id, "VCEK", self.subjects["VCEK"][chip]),
                "register_tee:issued")

    def aik_challenge(self, node_id):
        if node_id in self.revoked:
            return NodeRevoked, "aik_challenge:revoked"
        if node_id not in self.nodes:
            return NodeUnknown, "aik_challenge:unknown-node"
        for index, (_, expires_at, _) in list(self.challenges.items()):
            if self.now > expires_at:
                del self.challenges[index]
        self.challenges[self.opened] = [node_id,
                                        self.now + owner_ca.CHALLENGE_TTL,
                                        False]
        self.opened += 1
        self.records += 1
        return "challenge", "aik_challenge:opened"

    def aik_answer(self, back, right):
        challenge = self.challenges.get(self.opened - back) \
            if back <= self.opened else None
        if challenge is None:
            return SessionInvalid, "aik_answer:unknown"
        node_id, expires_at, consumed = challenge
        if consumed:
            return SessionInvalid, "aik_answer:replayed"
        challenge[2] = True
        if self.now > expires_at:
            return SessionInvalid, "aik_answer:expired"
        if not right:
            self.records += 1
            return ChallengeFailed, "aik_answer:wrong"
        if node_id in self.revoked:
            return NodeRevoked, "aik_answer:revoked"
        return (self._issue(node_id, "AIK", self.subjects["AIK"]),
                "aik_answer:issued")

    def set_trust_baseline(self, node_id, reference):
        if node_id in self.revoked:
            return NodeRevoked, "set_trust_baseline:revoked"
        if node_id not in self.nodes:
            return NodeUnknown, "set_trust_baseline:unknown-node"
        self.nodes[node_id].baseline = reference
        self.records += 1
        return None, "set_trust_baseline:set"

    def register_node(self, node_id, chip, kind):
        node = self.nodes.get(node_id)
        if node is None:
            return NodeUnknown, "register_node:unknown-node"
        if "IDENTITY" in node.certs and node_id not in self.revoked:
            return BaselineRejected, "register_node:registered-twice"
        if "AIK" not in node.certs:
            return NotInitialized, "register_node:no-aik"
        if node.baseline is None:
            return NotInitialized, "register_node:no-baseline"
        if kind == "chain-invalid":
            return BaselineRejected, f"register_node:{kind}"
        if chip != node.chip:
            return BaselineRejected, "register_node:another-chip"
        # the first appraisal check that the report or the reference fails
        failed = [check for check in APPRAISAL
                  if check in (kind, node.baseline)]
        if failed:
            return BaselineRejected, f"register_node:{failed[0]}"
        if node_id in self.revoked:
            return NodeRevoked, "register_node:revoked"
        return (self._issue(node_id, "IDENTITY", self.subjects["IDENTITY"]),
                "register_node:issued")

    def revoke(self, node_id):
        if node_id not in self.nodes:
            return NodeUnknown, "revoke:unknown-node"
        if node_id in self.revoked:
            return None, "revoke:again"
        self.revoked.add(node_id)
        self.records += 1
        return None, "revoke:revoked"

    def tick(self, seconds):
        self.now += seconds
        return None, "tick"

    def revocation_list(self):
        return (len(self.revoked),
                frozenset(s for n in self.revoked
                          for s in self.nodes[n].serials),
                frozenset(self.revoked))

    def snapshot(self) -> str:
        version, serials, _ = self.revocation_list()
        lines = [f"snapshot records={self.records} "
                 f"revocation-version={version}"]
        for node_id in sorted(self.nodes):
            certs = self.nodes[node_id].certs
            status = ("revoked" if node_id in self.revoked
                      else "active" if "IDENTITY" in certs
                      else "aik-certified" if "AIK" in certs
                      else "tee-registered")
            lines.append(
                f"node {node_id} status={status} vcek={certs['VCEK']} "
                f"aik={certs.get('AIK', '-')} "
                f"identity={certs.get('IDENTITY', '-')} "
                f"provisioned={int('IDENTITY' in certs)}")
        lines.append("revoked-serials " +
                     (",".join(str(s) for s in sorted(serials)) or "-"))
        return "\n".join(lines) + "\n"


def random_walk(rng: random.Random, steps: int) -> list[tuple]:
    """A list of operations. Node n<i> mostly uses chip i, and an answer
    mostly goes to the latest challenge (back=1)."""
    ops = []
    for _ in range(steps):
        index = rng.randrange(len(NODES))
        node = NODES[index]
        chip = index if rng.random() < 0.85 else 1 - index
        name = rng.choices(
            ("register_tee", "aik_challenge", "aik_answer",
             "set_trust_baseline", "register_node", "revoke", "tick"),
            weights=(3, 3, 4, 2, 6, 1, 1))[0]
        if name == "register_tee":
            ops.append((name, node, chip))
        elif name == "aik_challenge":
            ops.append((name, node))
        elif name == "aik_answer":
            back = 1 if rng.random() < 0.6 else rng.randrange(1, 5)
            ops.append((name, back, rng.random() < 0.75))
        elif name == "set_trust_baseline":
            ops.append((name, node, "honest" if rng.random() < 0.7
                        else rng.choice(REFERENCES[1:])))
        elif name == "register_node":
            kind = "honest" if rng.random() < 0.4 else rng.choice(EVIDENCE[1:])
            ops.append((name, node, chip, kind))
        elif name == "revoke":
            ops.append((name, node))
        else:
            ops.append((name, rng.choice(TICKS)))
    return ops


def run_walk(ops: list[tuple], seed=None) -> Counter:
    """Run ops on a fresh CA and on the model; the branches taken, by
    count. The first disagreement raises AssertionError naming the seed
    and the operations up to it."""
    fixture = Fixture()
    model = Model(fixture.rig.clock.now(), fixture.subjects)
    branches: Counter = Counter()

    def disagree(step, what, got, want):
        raise AssertionError(
            f"seed {seed}: step {step} {ops[step]!r}: {what} is {got!r}, "
            f"the model's {want!r}\nreplay: run_walk({ops[:step + 1]!r})")

    for step, op in enumerate(ops):
        want, branch = getattr(model, op[0])(*op[1:])
        branches[branch] += 1
        try:
            got = fixture.call(op)
        except Exception as exc:   # the outcome is the exception's type
            got = type(exc)
        if got != want:
            disagree(step, "the outcome", got, want)
    last = len(ops) - 1
    if fixture.rig.ca.revocation_list() != model.revocation_list():
        disagree(last, "revocation_list()", fixture.rig.ca.revocation_list(),
                 model.revocation_list())
    if fixture.rig.ca.snapshot() != model.snapshot():
        disagree(last, "snapshot()", fixture.rig.ca.snapshot(),
                 model.snapshot())
    return branches


def test_owner_ca_walks_agree_with_the_model():
    branches: Counter = Counter()
    for seed in range(WALKS):
        branches += run_walk(random_walk(random.Random(seed), STEPS), seed)
    # every rule of the model decided some step, so no walk is vacuous
    every = {f"register_node:{kind}" for kind in EVIDENCE[1:]} | {
        "register_tee:issued", "register_tee:another-chip",
        "register_tee:revoked", "aik_challenge:opened",
        "aik_challenge:unknown-node", "aik_challenge:revoked",
        "aik_answer:issued", "aik_answer:wrong", "aik_answer:replayed",
        "aik_answer:expired", "aik_answer:unknown", "aik_answer:revoked",
        "set_trust_baseline:set", "set_trust_baseline:revoked",
        "register_node:issued",
        "register_node:registered-twice", "register_node:no-aik",
        "register_node:no-baseline", "register_node:another-chip",
        "register_node:revoked", "revoke:revoked", "revoke:again"}
    assert every <= set(branches), sorted(every - set(branches))
