#!/usr/bin/env python3
"""Measured boot: three stages, a replayable log, and a sealed secret.

Each boot stage folds digests into its own PCR band. The event log is
enough to recompute every register, so an auditor can replay it and catch
any byte that changed. Sealing binds a secret to the launch-stage band:
only a platform that booted the identical images under the identical tcb
can read it back.
"""

import dataclasses

from ccxtrust import crypto, measurement, tee, tpm

rng = crypto.DeterministicRng(b"demo-measured-boot")
publisher = crypto.SigningKeyPair.generate(rng)


def fresh_boot(image_set, tcb):
    """Manufacture a platform and run it through host and launch stages."""
    state = tpm.tpm_manufacture(b"demo boot platform seed 32 bytes")
    epoch = measurement.MeasurementEpoch(state, publisher.public_bytes)
    epoch.run_host_stage([("firmware", b"rom contents"),
                          ("bootloader", b"loader contents")])
    manifests = [(measurement.sign_manifest(publisher, name, content), content)
                 for name, content in image_set]
    epoch.run_launch_stage(manifests, tcb)
    return state, epoch


images = [("kernel-image", b"kernel build 42"),
          ("rootfs-image", b"root filesystem")]
tcb = tee.TeeTcb(crypto.sha256(b"ovmf"), crypto.sha256(b"kernel"),
                 crypto.sha256(b"initrd"), crypto.sha256(b"cmdline"))

state, epoch = fresh_boot(images, tcb)
epoch.run_runtime_stage(
    [("agent", b"agent binary"), ("sidecar", b"sidecar binary")],
    {"agent": crypto.sha256(b"agent binary"),
     "sidecar": crypto.sha256(b"sidecar binary")})

print("boot log:")
for line in epoch.log_lines():
    print("   ", line)

# ---------------------------------------------------------------------------
# replaying the log reproduces the live registers
# ---------------------------------------------------------------------------

replayed = measurement.replay_log(epoch.events)
matches = all(tpm.pcr_read(state, index) == value
              for index, value in replayed.items())
print()
print("replayed registers match the live bank:", matches)

# flip one byte anywhere and the replay diverges from the hardware
tampered = list(epoch.events)
victim = tampered[3]
doctored = bytes([victim.digest[0] ^ 0x01]) + victim.digest[1:]
tampered[3] = dataclasses.replace(victim, digest=doctored)
print("one flipped byte in event 3 still matches:",
      measurement.verify_log_against_bank(tampered, state))

# ---------------------------------------------------------------------------
# sealing to the launch band
# ---------------------------------------------------------------------------

secret = b"database encryption key"
blob = tpm.seal(state, secret, measurement.LAUNCH_PCRS)
print()
print("sealed a secret to PCR", list(measurement.LAUNCH_PCRS))
print("  unseal on the sealing platform :",
      tpm.unseal(state, blob) == secret)

# an identical boot on fresh hardware with the same seed reaches the same
# launch band, so the blob opens there too
twin_state, _ = fresh_boot(images, tcb)
print("  unseal after an identical boot :",
      tpm.unseal(twin_state, blob) == secret)

# change one image and the launch band, and therefore the policy, differs
drifted_state, _ = fresh_boot(
    [("kernel-image", b"kernel build 42"),
     ("rootfs-image", b"root filesystem, patched")], tcb)
try:
    tpm.unseal(drifted_state, blob)
    print("  unseal after a drifted boot    : True (unexpected)")
except Exception as exc:
    print("  unseal after a drifted boot    : refused,", exc)
