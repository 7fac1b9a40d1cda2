"""What importing ccxtrust loads, seen from a fresh interpreter: only the
modules the simulator runs, so that none of its memory goes to code that
never executes, and one OpenSSL, cryptography's."""

import json
import os
import subprocess
import sys
from pathlib import Path

import ccxtrust

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
        "import json, sys, ccxtrust; print(json.dumps(sorted(sys.modules)))")
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
        "import json, sys, ccxtrust, ccxtrust.cli\n"
        "print(json.dumps(sorted(sys.modules)))")
    assert "ccxtrust.cli" in loaded
    assert [name for name in ("hashlib", "_hashlib", "hmac", "statistics")
            if name in loaded] == []
