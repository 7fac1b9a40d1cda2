"""What importing ccxtrust loads, seen from a fresh interpreter: only the
modules the simulator runs, so that none of its memory goes to code that
never executes, and one OpenSSL, cryptography's; and for reading and
judging a trace, no cryptography at all. And what an enrolled node's
values cost: none of them carries an instance __dict__."""

import dataclasses
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import ccxtrust
from ccxtrust import (crypto, encoding, harness, measurement, owner_ca,
                      protocol, tee, tpm, trace, verifier)
from ccxtrust.harness import run_scenario

SRC = Path(ccxtrust.__file__).resolve().parent.parent
PUBLIC_SERIALIZATION = "cryptography.hazmat.primitives.serialization"


def fresh_import(code: str) -> dict:
    """The JSON that code prints, run in a new interpreter that imports
    ccxtrust from the same sources as this one."""
    path = os.pathsep.join(filter(None, (str(SRC),
                                         os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    return json.loads(done.stdout)


def test_import_loads_no_pool_logging_or_public_serialization():
    # harness imports its thread pool inside run_bench, and crypto takes
    # the encoding enums from the module that defines them
    loaded = fresh_import(
        "import json, sys, ccxtrust.harness\n"
        "print(json.dumps(sorted(sys.modules)))")
    assert "ccxtrust.harness" in loaded
    unwanted = ("concurrent.futures", "logging", PUBLIC_SERIALIZATION)
    assert [name for name in loaded
            if any(name == u or name.startswith(u + ".") for u in unwanted)
            ] == []


def test_crypto_encoding_enums_are_the_public_ones():
    # a cryptography release that moves Encoding or PublicFormat out of
    # _serialization fails here, not in a changed point encoding
    seen = fresh_import(
        "import json, sys\n"
        "from ccxtrust import crypto\n"
        f"public_loaded = {PUBLIC_SERIALIZATION!r} in sys.modules\n"
        "from cryptography.hazmat.primitives import serialization\n"
        "print(json.dumps({'public_loaded': public_loaded, 'same': [\n"
        "    crypto.Encoding is serialization.Encoding,\n"
        "    crypto.PublicFormat is serialization.PublicFormat]}))")
    assert seen == {"public_loaded": False, "same": [True, True]}


def test_import_loads_no_second_openssl_or_statistics():
    # hashlib and hmac would map the system libcrypto beside
    # cryptography's; statistics loads decimal and fractions, which only
    # the bench and the comparison experiment run, and import it there
    loaded = fresh_import(
        "import json, sys, ccxtrust.cli, ccxtrust.harness\n"
        "print(json.dumps(sorted(sys.modules)))")
    assert {"ccxtrust.cli", "ccxtrust.harness"} <= set(loaded)
    assert [name for name in ("hashlib", "_hashlib", "hmac", "statistics")
            if name in loaded] == []



def _ours_and_cryptography(loaded: list[str]) -> list[str]:
    """The ccxtrust and cryptography modules among those loaded."""
    return [name for name in loaded
            if name.split(".")[0] in ("ccxtrust", "cryptography")]


def test_trace_module_loads_no_cryptography():
    # the trace model and its audit import only the stdlib and errors
    loaded = fresh_import(
        "import json, sys, ccxtrust.trace\n"
        "print(json.dumps(sorted(sys.modules)))")
    assert _ours_and_cryptography(loaded) == [
        "ccxtrust", "ccxtrust.errors", "ccxtrust.trace"]


def test_check_trace_loads_no_cryptography(tmp_path):
    # reading and judging a trace file needs no key, device or service
    # module; only the commands that run flows import them
    path = tmp_path / "trace.log"
    run_scenario(7, nodes=2).trace.write(path)
    seen = fresh_import(
        "import contextlib, io, json, sys\n"
        "from ccxtrust import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    code = cli.main(['check-trace', {str(path)!r}])\n"
        "print(json.dumps({'code': code, 'lines': out.getvalue().count('\\n'),\n"
        "                  'loaded': sorted(sys.modules)}))")
    assert (seen["code"], seen["lines"]) == (0, 3)
    assert _ours_and_cryptography(seen["loaded"]) == [
        "ccxtrust", "ccxtrust.cli", "ccxtrust.errors", "ccxtrust.trace"]


# ---------------------------------------------------------------------------
# slotted value types
# ---------------------------------------------------------------------------

def _slotted_classes() -> set[type]:
    """Every dataclass of the modules whose values an enrolled node keeps,
    as each module names it, with the record bases and the TPM's state
    and PCR bank."""
    modules = (crypto, encoding, measurement, owner_ca, protocol, tee, tpm,
               trace, verifier)
    return {cls for module in modules for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and dataclasses.is_dataclass(cls)} | {
        encoding.Record, crypto.Signed, tpm.TpmState, tpm.PcrBank}


def _reachable(roots: list, kinds: set[type]) -> list:
    """The instances of kinds reachable from roots through containers and
    ccxtrust objects."""
    seen, found, stack = set(), [], list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if type(obj) in kinds:
            found.append(obj)
        if isinstance(obj, (dict, list, tuple, set, frozenset)) \
                or type(obj).__module__.startswith("ccxtrust."):
            stack.extend(gc.get_referents(obj))
    return found


def test_every_value_type_a_node_keeps_is_slotted():
    # a fleet keeps dozens of these objects per node, and an instance
    # __dict__ costs more than most of them hold
    kinds = _slotted_classes()
    assert [cls.__name__ for cls in kinds if "__slots__" not in vars(cls)] == []
    cluster = harness.build_cluster(7, nodes=1)
    actor, svc = cluster.actor(0), cluster.verifier_svc
    request, envelope = harness._honest_envelope(cluster, actor, "tpm-tee")
    _outcome, verified = svc.verify_composite(envelope, request,
                                              cluster.policy)
    epoch = measurement.MeasurementEpoch(actor.state, cluster.publisher.public)
    epoch.run_host_stage([("firmware", b"firmware")])
    roots = [cluster, request, envelope, verified, svc.issue_token(verified),
             epoch, trace.check_theorems(cluster.trace),
             measurement.sign_manifest(cluster.publisher, "image", b"image"),
             actor.sign_layer("tee", bytes(64), b""),
             actor.sign_layer("tpm", bytes(32), b"", (0,)),
             tpm.seal(actor.state, b"disk key", (0,)),
             tpm.make_credential(crypto.Secret(bytes(32)), actor.aik_blob.name,
                                 actor.state.ek_blob.public,
                                 crypto.DeterministicRng(b"credential"))]
    found = _reachable(roots, kinds)
    assert {type(obj) for obj in found} == kinds - {encoding.Record,
                                                    crypto.Signed}
    assert [type(obj).__name__ for obj in found
            if hasattr(obj, "__dict__")] == []
