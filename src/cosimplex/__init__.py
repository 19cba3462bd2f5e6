"""Truncated semi-cosimplicial sets and Hilbert towers.

Subpackages by topic: label combinatorics (labels), set-level structures and
saturation (scs), exact rational cohomology (cohomology), normal labels and
extensions (normal_ext), inner-product towers with labeled subspaces and
symmetric-group generators (tower), spreadable isometry families (spread),
built-in examples (fixtures), JSON formats (io_json) and the command line
(cli).

``import cosimplex`` loads no submodule: each name in ``__all__`` imports its
module on first use (PEP 562).  The CLI relies on this, and on each command
importing only the modules it calls, so a process compiles only what its
command runs.
"""

from importlib import import_module

_SOURCES = {
    "Label": "labels",
    "enumerate_labels": "labels",
    "join": "labels",
    "TruncatedSCS": "scs",
    "check_saturation": "scs",
    "from_ell": "scs",
    "prototypical": "scs",
    "saturate": "scs",
    "validate": "scs",
    "HilbertTower": "tower",
    "from_scs": "tower",
}

__all__ = list(_SOURCES)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value
