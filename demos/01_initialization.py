#!/usr/bin/env python3
"""Platform initialization, from bare silicon to a registered node.

Walks one device through manufacture, measured boot, and enrollment with
the owner CA, printing what each trust artifact looks like along the way.
Runnable top to bottom; everything is seeded, so the output is identical
on every run.
"""

from ccxtrust import crypto, harness, tpm
from ccxtrust.trace import check_theorems

# ---------------------------------------------------------------------------
# a TPM on its own: endorsement identity and platform state
# ---------------------------------------------------------------------------

rng = crypto.DeterministicRng(b"demo-initialization")
state = tpm.tpm_manufacture(rng.random_bytes(32))

print("manufactured a software TPM")
print("  EK public key :", state.ek_blob.public.hex()[:48], "...")
print("  EK cert chains to the TPM vendor root:",
      state.ek_cert.verify(tpm.tpm_vendor_root_pub()))

# PCRs start at zero and only ever fold new digests in
before = tpm.pcr_read(state, 10)
tpm.pcr_extend(state, 10, crypto.sha256(b"some measured event"))
after = tpm.pcr_read(state, 10)
print("  PCR 10 before extend:", before.hex()[:24], "...")
print("  PCR 10 after  extend:", after.hex()[:24], "...")

# a quote is a signed statement over selected PCRs plus caller freshness
srk_handle = tpm.load_key(state, tpm.create_primary(state, "storage"))
aik_blob = tpm.create_signing_key(state, srk_handle, role="AIK")
aik_handle = tpm.load_key(state, aik_blob)
nonce = rng.random_bytes(32)
quote = tpm.cc_quote(state, (0, 10), nonce, aik_handle, b"")
print("  quote over PCR {0,10} verifies under the AIK:",
      quote.verify(aik_blob.public))

# ---------------------------------------------------------------------------
# the full enrollment: vendor, owner CA, verifier, and one node
# ---------------------------------------------------------------------------

print()
print("standing up the whole trust domain (vendor, CA, verifier, 1 node)")
cluster = harness.build_cluster(2026, nodes=1)
actor = cluster.actor(0)

print("  node id            :", actor.node_id)
print("  certified chip id  :", actor.vcek_cert.hw_id.hex()[:24], "...")
print("  launch measurement :", actor.launch_measurement.hex()[:24], "...")
print("  AIK name           :", actor.aik_blob.name.hex()[:24], "...")

# the CA saw the TEE registration, the credential challenge, and the
# final node registration; its log records each lifecycle step
print()
print("owner CA record log:")
for line in cluster.oca.record_log:
    print("   ", line)

print()
print("registry snapshot:")
for line in cluster.oca.snapshot().splitlines():
    print("   ", line)

# ---------------------------------------------------------------------------
# what initialization left in the protocol trace
# ---------------------------------------------------------------------------

print()
print(f"initialization trace has {len(cluster.trace.events)} events; "
      "first eight:")
for line in cluster.trace.lines()[:8]:
    print("   ", line)

verdicts = check_theorems(cluster.trace)
print()
print("trust properties over the trace:")
for verdict in verdicts.values():
    print("   ", verdict.line())
