"""Span recorder for the benchmark's traced runs.

The recorder wraps the public functions of each ccxtrust layer at the
point where callers look them up: class methods (``FieldWriter.put``),
module attributes (``crypto.verify``, which every caller reaches through
the ``crypto`` module), and, for ``ec_derive``, the ``ec`` module object
that ``crypto`` calls ``derive_private_key`` on. Nothing under ``src/``
changes; ``install`` patches and ``uninstall`` puts every original back.

Each wrapped call records one span: boundary, start, end, parent span and
the op it belongs to. Spans stay in memory (flat arrays) and are written
out once at the end. The recorder is single-threaded: the benchmark drives
the library from one client, so the current parent is a plain stack.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter_ns

# (boundary name, owner path, attribute). The owner path is resolved against
# the imported ccxtrust package: "crypto" is a module, "crypto.SigningKeyPair"
# a class, "crypto.ec" the cryptography module crypto calls into.
BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    ("crypto.sign", "crypto.SigningKeyPair", "sign"),
    ("crypto.verify", "crypto", "verify"),
    ("crypto.ecdh", "crypto", "ecdh_shared"),
    ("crypto.keygen", "crypto", "public_from_scalar"),
    ("crypto.ec_derive", "crypto.ec", "derive_private_key"),
    ("crypto.seal", "crypto", "channel_seal"),
    ("crypto.open", "crypto", "channel_open"),
    ("crypto.wrap", "crypto", "wrap"),
    ("crypto.kdf", "crypto", "kdf_counter"),
    ("encoding.put", "encoding.FieldWriter", "put"),
    ("encoding.take", "encoding.FieldReader", "take"),
    ("protocol.channel_seal", "protocol.ChannelTable", "seal"),
    ("protocol.channel_open", "protocol.ChannelTable", "open"),
    ("protocol.trace_emit", "protocol.ProtocolTrace", "emit"),
    ("protocol.check_theorems", "protocol", "check_theorems"),
    ("tpm.manufacture", "tpm", "tpm_manufacture"),
    ("tpm.create_primary", "tpm", "create_primary"),
    ("tpm.create_signing_key", "tpm", "create_signing_key"),
    ("tpm.load_key", "tpm", "load_key"),
    ("tpm.activate_credential", "tpm", "activate_credential"),
    ("tpm.cc_quote", "tpm", "cc_quote"),
    ("tee.derive_vcek", "tee.TeeVendor", "derive_vcek"),
    ("tee.chain_verify", "tee.CertChain", "verify"),
    ("tee.guest_report", "tee", "guest_report"),
    ("measurement.epoch", "measurement.MeasurementEpoch", "run_host_stage"),
    ("measurement.epoch", "measurement.MeasurementEpoch", "run_launch_stage"),
    ("measurement.epoch", "measurement.MeasurementEpoch", "run_runtime_stage"),
    ("owner_ca.register_tee", "owner_ca.OwnerCa", "register_tee"),
    ("owner_ca.aik_challenge", "owner_ca.OwnerCa", "aik_challenge"),
    ("owner_ca.aik_answer", "owner_ca.OwnerCa", "aik_answer"),
    ("owner_ca.register_node", "owner_ca.OwnerCa", "register_node"),
    ("verifier.new_request", "verifier.VerifierService", "new_request"),
    ("verifier.verify_composite", "verifier.VerifierService", "verify_composite"),
    ("verifier.issue_token", "verifier.VerifierService", "issue_token"),
    ("verifier.validate_token", "verifier.VerifierService", "validate_token"),
    ("verifier.register_node_keys", "verifier.VerifierService",
     "register_node_keys"),
    ("harness.add_node", "harness", "add_node"),
)

BOUNDARY_NAMES: tuple[str, ...] = tuple(dict.fromkeys(b[0] for b in BOUNDARIES))


class _ModuleProxy:
    """Stands in for a module so one attribute can be wrapped for a single
    caller without touching the module every other importer sees."""

    def __init__(self, module) -> None:
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class SpanRecorder:
    """In-memory spans: parallel arrays indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.current_op = -1
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name_id)

    # -- recording -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        """Return fn wrapped so that every call records a span."""
        nid = self._intern(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0)
            stack.append(idx)
            self.start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                stack.pop()

        return traced

    def add(self, name: str, parent: int, start: int, end: int,
            op: int = 0) -> int:
        """Append a finished span directly (used for synthetic trees)."""
        idx = len(self.name_id)
        self.name_id.append(self._intern(name))
        self.parent.append(parent)
        self.op.append(op)
        self.start.append(start)
        self.end.append(end)
        return idx

    # -- patching ------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every boundary of the given ccxtrust package."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        crypto = package.crypto
        real_ec = crypto.ec
        proxy = _ModuleProxy(real_ec)
        self._patches.append((crypto, "ec", real_ec))
        crypto.ec = proxy
        for name, owner_path, attr in BOUNDARIES:
            if owner_path == "crypto.ec":
                setattr(proxy, attr, self.wrap(name, getattr(real_ec, attr)))
                continue
            owner = package
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per span: its duration minus the part its children cover.

        Children are appended in start order, so the union of their
        intervals is accumulated in one pass with a running high-water
        mark per parent.
        """
        n = len(self.name_id)
        covered = [0] * n
        high = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                continue
            s, e = self.start[i], self.end[i]
            s = max(s, high[p], self.start[p])
            e = min(e, self.end[p])
            if e > s:
                covered[p] += e - s
                high[p] = e
        return [max(0, self.end[i] - self.start[i] - covered[i])
                for i in range(n)]

    def totals(self) -> dict[str, tuple[int, int]]:
        """Boundary name -> (calls, self time in ns)."""
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for i, t in enumerate(self.self_times()):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_ns[name] += t
        return {name: (calls[name], self_ns[name]) for name in calls}

    def count_under(self, child: str, ancestor: str) -> dict[int, int]:
        """For each span named ancestor, how many child-named spans lie
        anywhere below it (nearest such ancestor wins)."""
        names = self.names
        counts = {i: 0 for i in range(len(self.name_id))
                  if names[self.name_id[i]] == ancestor}
        for i in range(len(self.name_id)):
            if names[self.name_id[i]] != child:
                continue
            p = self.parent[i]
            while p >= 0 and names[self.name_id[p]] != ancestor:
                p = self.parent[p]
            if p >= 0:
                counts[p] += 1
        return counts

    def write_csv(self, path) -> None:
        """One line per span: op, span id, parent id, name, start, end (ns)."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for i in range(len(self.name_id)):
                fh.write(f"{self.op[i]},{i},{self.parent[i]},"
                         f"{self.names[self.name_id[i]]},"
                         f"{self.start[i]},{self.end[i]}\n")
