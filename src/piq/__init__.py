"""piq: exact-arithmetic prover for identities among the Gosper constants.

The package reduces each candidate identity to a finite coefficient check
justified by modular-form theory: Pi-monomials convert to eta quotients with
known weight, level, and exact cusp orders, Lambert sums reduce to certified
Eisenstein combinations, and Sturm's criterion turns holomorphy plus finitely
many matching coefficients into a proof.

``import piq`` loads the prover only (``ident`` and ``verify``, with
``errors``, ``series``, ``etaq`` and ``quasimod`` beneath them).  The
discovery layer, ``discover``, ``haupt`` and ``linalg``, loads on the first
access to any one of the three, all three together.
"""

import importlib

from . import ident, verify

__version__ = "0.1.0"

_DISCOVERY = ("linalg", "discover", "haupt")


def __getattr__(name: str):
    if name in _DISCOVERY:
        # import_module, not "from . import": that form looks the name up on
        # this package first and so would call this hook again without end.
        for module in _DISCOVERY:
            importlib.import_module(f"{__name__}.{module}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def corpus_path() -> str:
    """Filesystem path of the shipped identity corpus."""
    from importlib import resources

    return str(resources.files("piq") / "corpus" / "gosper.piq")


def load_corpus() -> list[ident.IdentityRecord]:
    """Parse and return the shipped identity corpus."""
    with open(corpus_path(), "r", encoding="utf-8") as fh:
        return ident.parse_corpus(fh.read())
