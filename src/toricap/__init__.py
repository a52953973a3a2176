"""toricap: symplectic invariants of convex toric domains.

Exact diagonals and support functions, Gutt-Hutchings capacities along
two independent routes, Reeb orbit spectra on rounded boundaries with
Conley-Zehnder indices, and the integer/rational bookkeeping of punctured
curves and holomorphic buildings.

Import each name from its module, as in ``from toricap.moment_domain import
make_polygon_domain``.  ``import toricap`` loads none of the four modules;
``toricap.capacities`` and the like load theirs the first time they are
read, under the interpreter's import lock, so every function stays safe
to call concurrently.
"""
import importlib

__version__ = "0.1.0"


def __getattr__(name):
    """Import moment_domain, capacities, rounding_reeb or sft_ledger on first access (PEP 562)."""
    if name in ("moment_domain", "capacities", "rounding_reeb", "sft_ledger"):
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
