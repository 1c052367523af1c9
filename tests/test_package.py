"""What ``import piq`` loads, and the discovery layer loaded on first use.

Each check that reads ``sys.modules`` runs in a fresh interpreter, since the
rest of the suite has long imported every module by then.
"""

import json
import os
import subprocess
import sys

import pytest

import piq

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PROVER = ["piq", "piq.errors", "piq.etaq", "piq.ident", "piq.quasimod", "piq.series", "piq.verify"]
DISCOVERY = ["piq.discover", "piq.haupt", "piq.linalg"]


def _loaded_after(statements: str) -> list[str]:
    script = (
        "import json, sys\n"
        f"{statements}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'piq')))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def test_import_loads_only_the_prover():
    assert _loaded_after("import piq") == PROVER


@pytest.mark.parametrize("name", ["haupt", "discover", "linalg"])
def test_first_discovery_access_loads_all_three(name):
    loaded = _loaded_after(f"import piq\nassert piq.{name}.__name__ == 'piq.{name}'")
    assert loaded == sorted(PROVER + DISCOVERY)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="nonexistent"):
        piq.nonexistent
    assert not hasattr(piq, "nonexistent")
