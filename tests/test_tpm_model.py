"""The software TPM's key tree against a reference model of its contract.

Seeded random walks drive one device through primaries (storage, CC and
platform), child signing keys, CVM root keys in both schemes (under the
storage or the CC primary), CVM master secrets in NV, key loads (fresh,
stale after a seed rotation, orphaned by a flushed parent, and a CC tree
after its CVM's teardown), flushes, seed rotations and CVM teardowns. A
model of a few dicts predicts every outcome: the kind of value a call
returns (a load's handle exactly), or the type of the exception it
raises. After the walk the loaded handles and the key each holds, every
hierarchy's seed version and the NV keys must be the model's too. A
failing walk prints its seed and its operations as a list that replays
it:

    PYTHONPATH=src:tests python -c \\
        "import test_tpm_model as m; m.run_walk([...])"
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

from ccxtrust import crypto, tpm
from ccxtrust.errors import (
    HierarchyMismatch,
    InvalidLength,
    KeyDeactivated,
    KeyNotLoaded,
    SeedVersionMismatch,
)

HIERARCHIES = ("storage", "cc", "platform")
CVMS = (b"vm-a", b"vm-b")
FIRST_HANDLE = 0x80000000
WALKS, STEPS = 100, 60


@dataclasses.dataclass(frozen=True)
class Key:
    """What the model knows of a created blob. Two blobs with the same
    identity are the same bytes: a primary is a function of its
    hierarchy's seed, a CVM root of its parent and CVM, and every child
    is new."""
    identity: tuple
    hierarchy: str
    version: int
    parent: tuple | None   # the parent's identity; None for a primary
    cvm: bytes


class Model:
    """The TPM's key-tree contract as a few dicts. Each operation returns
    (outcome, branch): the outcome is the value's kind (a load's handle,
    a rotation's version) or the exception type it raises, and the
    branch names the rule that decided it."""

    def __init__(self) -> None:
        self.versions = {h: 1 for h in tpm.HIERARCHIES}
        self.keys: list[Key] = []                      # by creation order
        self.loaded: dict[int, Key] = {}               # handle -> key
        self.nv: set[bytes] = set()                    # CVMs with a secret
        self.next_handle = FIRST_HANDLE

    def _loaded(self, handle):
        return self.loaded.get(handle)

    def _create(self, identity, hierarchy, parent, cvm):
        # a child carries its parent's seed version, a primary its seed's
        key = Key(identity, hierarchy,
                  parent.version if parent else self.versions[hierarchy],
                  parent.identity if parent else None, cvm)
        self.keys.append(key)
        return ("blob", hierarchy, key.version, cvm)

    def create_primary(self, hierarchy):
        return (self._create(("primary", hierarchy,
                              self.versions[hierarchy]),
                             hierarchy, None, b""),
                f"create_primary:{hierarchy}")

    def create_signing_key(self, handle):
        parent = self._loaded(handle)
        if parent is None:
            return KeyNotLoaded, "create_signing_key:no-parent"
        return (self._create(("child", len(self.keys)), parent.hierarchy,
                             parent, parent.cvm),
                "create_signing_key:created")

    def create_cvm_root_key(self, handle, cvm):
        if not cvm:
            return InvalidLength, "create_cvm_root_key:empty-id"
        parent = self._loaded(handle)
        if parent is None:
            return KeyNotLoaded, "create_cvm_root_key:no-parent"
        if parent.hierarchy not in ("storage", "cc") or parent.parent:
            return HierarchyMismatch, "create_cvm_root_key:not-a-primary"
        return (self._create(("cvm-root", parent.identity, cvm),
                             parent.hierarchy, parent, cvm),
                f"create_cvm_root_key:{parent.hierarchy}")

    def create_cvm_key(self, cvm):
        if not cvm:
            return InvalidLength, "create_cvm_key:empty-id"
        self.nv.add(cvm)
        return "secret", "create_cvm_key:stored"

    def load_key(self, index):
        key = self.keys[index]
        if key.version != self.versions[key.hierarchy]:
            return SeedVersionMismatch, "load_key:stale"
        if key.cvm and key.hierarchy == "cc" and key.cvm not in self.nv:
            return KeyDeactivated, "load_key:torn-down"
        if key.parent is not None and not any(
                k.identity == key.parent for k in self.loaded.values()):
            return KeyNotLoaded, "load_key:orphaned"
        handle = self.next_handle
        self.next_handle += 1
        self.loaded[handle] = key
        return ("handle", handle), ("load_key:cvm" if key.cvm
                                    else "load_key:loaded")

    def flush_key(self, handle):
        if handle not in self.loaded:
            return KeyNotLoaded, "flush_key:not-loaded"
        del self.loaded[handle]
        return None, "flush_key:flushed"

    def rotate_seed(self, hierarchy):
        self.versions[hierarchy] += 1
        return ("version", self.versions[hierarchy]), "rotate_seed"

    def deactivate_cvm(self, cvm):
        if not cvm:
            return InvalidLength, "deactivate_cvm:empty-id"
        self.nv.discard(cvm)
        for handle in [h for h, k in self.loaded.items() if k.cvm == cvm]:
            del self.loaded[handle]
        return None, "deactivate_cvm:torn-down"


class Device:
    """One fresh TPM and the blobs a walk has created, by creation order."""

    def __init__(self) -> None:
        self.state = tpm.tpm_manufacture(b"\x5a" * 32)
        self.master_secret = crypto.Secret(crypto.sha256(b"cvm-master"))
        self.blobs: list[tpm.KeyBlob] = []

    def _blob(self, blob: tpm.KeyBlob) -> tuple:
        self.blobs.append(blob)
        return ("blob", blob.hierarchy, blob.seed_version, blob.cvm_id)

    def call(self, op: tuple):
        """Run one operation on the device; its outcome, comparable with
        the model's."""
        state, name, args = self.state, op[0], op[1:]
        if name == "create_primary":
            return self._blob(tpm.create_primary(state, *args))
        if name == "create_signing_key":
            return self._blob(tpm.create_signing_key(state, *args,
                                                     role="signing"))
        if name == "create_cvm_root_key":
            handle, cvm = args
            return self._blob(tpm.create_cvm_root_key(
                state, self.master_secret, handle, cvm))
        if name == "create_cvm_key":
            secret = tpm.create_cvm_key(state, *args)
            return "secret" if isinstance(secret, crypto.Secret) else secret
        if name == "load_key":
            return "handle", tpm.load_key(state, self.blobs[args[0]])
        if name == "flush_key":
            return tpm.flush_key(state, *args)
        if name == "rotate_seed":
            return "version", tpm.rotate_seed(state, *args)
        if name == "deactivate_cvm":
            return tpm.deactivate_cvm(state, *args)
        raise AssertionError(f"unknown operation {op!r}")


def random_walk(rng: random.Random, steps: int) -> list[tuple]:
    """A list of operations, each drawn from the state a model of the
    walk so far holds: a handle is mostly a loaded one, a CVM root mostly
    under a loaded primary, and a load of any blob made so far."""
    model, ops = Model(), []
    for _ in range(steps):
        loaded = list(model.loaded)
        primaries = [h for h, k in model.loaded.items() if k.parent is None]
        issued = range(FIRST_HANDLE, model.next_handle + 1)
        name = rng.choices(
            ("create_primary", "create_signing_key", "create_cvm_root_key",
             "create_cvm_key", "load_key", "flush_key", "rotate_seed",
             "deactivate_cvm"),
            weights=(3, 3, 4, 2, 9, 1, 1, 1))[0]
        cvm = rng.choice(CVMS) if rng.random() < 0.95 else b""
        if name == "create_primary":
            op = (name, rng.choice(HIERARCHIES))
        elif name == "create_signing_key":
            op = (name, rng.choice(loaded) if loaded and rng.random() < 0.9
                  else rng.choice(issued))
        elif name == "create_cvm_root_key":
            pool = primaries if primaries and rng.random() < 0.8 else issued
            op = (name, rng.choice(pool), cvm)
        elif name in ("create_cvm_key", "deactivate_cvm"):
            op = (name, cvm)
        elif name == "load_key":
            if not model.keys:
                op = ("create_primary", rng.choice(HIERARCHIES))
            else:
                op = (name, rng.randrange(len(model.keys)))
        elif name == "flush_key":
            op = (name, rng.choice(loaded) if loaded and rng.random() < 0.8
                  else rng.choice(issued))
        else:
            op = (name, rng.choice(HIERARCHIES[:2]))
        getattr(model, op[0])(*op[1:])
        ops.append(op)
    return ops


def run_walk(ops: list[tuple], seed=None) -> Counter:
    """Run ops on a fresh device and on the model; the branches taken, by
    count. The first disagreement raises AssertionError naming the seed
    and the operations up to it."""
    device, model = Device(), Model()
    branches: Counter = Counter()

    def disagree(step, what, got, want):
        raise AssertionError(
            f"seed {seed}: step {step} {ops[step]!r}: {what} is {got!r}, "
            f"the model's {want!r}\nreplay: run_walk({ops[:step + 1]!r})")

    for step, op in enumerate(ops):
        want, branch = getattr(model, op[0])(*op[1:])
        branches[branch] += 1
        try:
            got = device.call(op)
        except Exception as exc:   # the outcome is the exception's type
            got = type(exc)
        if got != want:
            disagree(step, "the outcome", got, want)
    last = len(ops) - 1
    # the model's identities name blobs: equal identity, equal bytes
    name_of = {}
    for key, blob in zip(model.keys, device.blobs):
        if name_of.setdefault(key.identity, blob.name) != blob.name:
            disagree(last, f"the blob of {key.identity!r}", blob.name,
                     name_of[key.identity])
    if len(set(name_of.values())) != len(name_of):
        disagree(last, "the count of distinct blobs",
                 len(set(name_of.values())), len(name_of))
    state = device.state
    loaded = {h: e.blob.name for h, e in state.loaded.items()}
    if loaded != {h: name_of[k.identity] for h, k in model.loaded.items()}:
        disagree(last, "the loaded handles", sorted(loaded),
                 sorted(model.loaded))
    versions = {h: r.version for h, r in state.seeds.items()}
    if versions != model.versions:
        disagree(last, "the seed versions", versions, model.versions)
    nv = {f"cc/cvm/{cvm.hex()}" for cvm in model.nv}
    if set(state.nv) != nv:
        disagree(last, "the NV keys", sorted(state.nv), sorted(nv))
    return branches


def test_tpm_walks_agree_with_the_model():
    branches: Counter = Counter()
    for seed in range(WALKS):
        branches += run_walk(random_walk(random.Random(seed), STEPS), seed)
    # every rule of the model decided some step, so no walk is vacuous
    every = {f"create_primary:{h}" for h in HIERARCHIES} | {
        "create_signing_key:created", "create_signing_key:no-parent",
        "create_cvm_root_key:storage", "create_cvm_root_key:cc",
        "create_cvm_root_key:not-a-primary", "create_cvm_root_key:no-parent",
        "create_cvm_root_key:empty-id", "create_cvm_key:stored",
        "create_cvm_key:empty-id", "load_key:loaded", "load_key:cvm",
        "load_key:stale", "load_key:torn-down", "load_key:orphaned",
        "flush_key:flushed", "flush_key:not-loaded", "rotate_seed",
        "deactivate_cvm:torn-down", "deactivate_cvm:empty-id"}
    assert every <= set(branches), sorted(every - set(branches))
