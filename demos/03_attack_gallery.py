#!/usr/bin/env python3
"""Attack gallery: every drill the harness knows, run back to back.

Live attacks replay, splice, spoof, and roll back real protocol state and
count what the defenses reject. The fault traces go one level deeper:
they forge history itself, and the trace checker finds the step where the
story stops being justified.
"""

from ccxtrust import harness, protocol

# ---------------------------------------------------------------------------
# live attacks against the running verifier
# ---------------------------------------------------------------------------

# some drills leave permanent marks (a revocation stays revoked), so each
# one gets its own fresh cluster
for index, (title, drill) in enumerate(harness.DRILLS.values()):
    report = drill(harness.build_cluster(13 + index, nodes=3))
    print(f"{title} [{report.name}]")
    print(f"   attempted {report.attempted}, accepted {report.accepted}, "
          f"rejected {report.rejected}")
    for key, count in sorted(report.outcomes.items()):
        print(f"   {key}: {count}")
    for note in report.notes:
        print(f"   note: {note}")
    print(f"   -> {'held' if report.passed else 'BROKEN'}")
    print()

# ---------------------------------------------------------------------------
# forged histories against the trace checker
# ---------------------------------------------------------------------------

cluster = harness.build_cluster(99, nodes=3)
for title, build, _violates in harness.FAULT_TRACES.values():
    trace = build(cluster)
    verdicts = protocol.check_theorems(trace)
    print(title)
    for verdict in verdicts.values():
        print("   ", verdict.line())
    print()
