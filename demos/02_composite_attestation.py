#!/usr/bin/env python3
"""Composite attestation in both embedding directions.

One protocol run produces a single piece of evidence in which the TEE
report and the TPM quote are cryptographically bound to each other and to
the verifier's nonce. The verifier sees three messages. The baseline that
attests each technology separately needs six, and nothing ties its two
tokens together.
"""

from ccxtrust import harness, protocol
from ccxtrust.trace import ProtocolTrace

cluster = harness.build_cluster(7, nodes=1)
actor = cluster.actor(0)
svc = cluster.verifier_svc

# ---------------------------------------------------------------------------
# direction 1: TPM quote on the outside, TEE report embedded
# ---------------------------------------------------------------------------

trace = ProtocolTrace()
token = protocol.run_attest_composite(actor, svc, cluster.channels, trace,
                                      policy_id=cluster.policy_id,
                                      direction="tpm-tee")
claims = svc.validate_token(token)

print("direction tpm-tee (quote embeds the report)")
print("  verifier-visible messages:", trace.verifier_visible_sends())
print("  token type  :", claims["payload"]["type"])
print("  token serial:", claims["payload"]["serial"])
print("  compact form:", token.compact()[:64], "...")

# ---------------------------------------------------------------------------
# direction 2: TEE report on the outside, TPM quote embedded
# ---------------------------------------------------------------------------

trace = ProtocolTrace()
token = protocol.run_attest_composite(actor, svc, cluster.channels, trace,
                                      policy_id=cluster.policy_id,
                                      direction="tee-tpm")
claims = svc.validate_token(token)

print()
print("direction tee-tpm (report embeds the quote)")
print("  verifier-visible messages:", trace.verifier_visible_sends())
print("  token type  :", claims["payload"]["type"])
print("  token serial:", claims["payload"]["serial"])

# the three messages at the verifier: request out, evidence in, token out
print()
print("what the verifier's network tap records:")
for event in trace.events:
    if event.kind == "send" and "verifier" in (event.principal, event.peer):
        print(f"   {event.principal:>14} -> {event.peer:<14} {event.tag}")

# ---------------------------------------------------------------------------
# the baseline: two independent attestations, twice the traffic
# ---------------------------------------------------------------------------

trace = ProtocolTrace()
tokens = protocol.run_attest_independent(actor, svc, cluster.channels, trace,
                                         policy_id=cluster.policy_id)

print()
print("independent baseline (one TEE run, one TPM run)")
print("  verifier-visible messages:", trace.verifier_visible_sends())
print("  tokens issued:", len(tokens),
      "with types", [svc.validate_token(t)["payload"]["type"]
                     for t in tokens])
print("  nothing in either token references the other; a verifier cannot")
print("  tell whether both came from the same physical platform")
