"""Start-up hygiene: mpmath and the process pool load only where a command uses
them, and import builds no base-prime table.

Each case runs in a fresh interpreter, since this test process has loaded
both long ago; a stray top-level import of either would fail the first cases.
"""

import json
import os
import subprocess
import sys

import pytest

import primesq

_PROBE = """
import contextlib, io, json, sys
out = io.StringIO()
with contextlib.redirect_stdout(out):
    {code}
print(json.dumps({{"mpmath": "mpmath" in sys.modules,
                  "pool": "concurrent.futures.process" in sys.modules,
                  "out": out.getvalue()}}))
"""

_MAIN = "from primesq import cli; assert cli.main({argv!r}) == 0"


@pytest.mark.parametrize("code, mpmath, pool, out", [
    pytest.param("import primesq", False, False, "", id="import"),
    pytest.param("import primesq.cli", False, False, "", id="import-cli"),
    pytest.param(_MAIN.format(argv=["report", "all", "--workers", "1", "--format", "json"]),
                 False, False, None, id="report-all"),
    pytest.param(_MAIN.format(argv=["verify", "c2", "--from", "3", "--to", "1100", "--workers", "2"]),
                 False, True, None, id="campaign-on-pool"),
    pytest.param(_MAIN.format(argv=["compute", "delta", "--n", "9999999"]),
                 True, False, "601174.568648\n", id="delta-at-quad"),
])
def test_cold_process_loads_only_what_it_uses(code, mpmath, pool, out):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(primesq.__file__)))
    done = subprocess.run([sys.executable, "-c", _PROBE.format(code=code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert (loaded["mpmath"], loaded["pool"]) == (mpmath, pool)
    if out is not None:
        assert loaded["out"] == out


def test_import_sieves_nothing():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(primesq.__file__)))
    code = "import primesq.cli; from primesq import sieve; print(sieve._shared.limit)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"
