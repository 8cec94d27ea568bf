"""orientkit: proper orientations of bipartite planar graphs.

k-orientations by path reversal, the switching construction for proper
(k+1)-orientations, exact maximum average degree, exact proper-orientation
numbers at desk scale, instance generators, and the tightness certificate
for the minimum-degree-2 family.

Importing the package imports none of its modules.  Each name of
``__all__``, and each module (``orientkit.generators``, say), is imported
when it is first read, so a command that never reads Mad does not load
``density`` or ``fractions``.  Nothing read is stored here: every read
returns the defining module's current value.
"""

import importlib
import sys

__version__ = "0.1.0"

# Each public name -> the module that defines it.
_HOMES = {
    "Bipartition": "graphs",
    "CertificateReport": "t4proof",
    "CnfDocument": "cnf",
    "DensityReport": "density",
    "ExactResult": "exact",
    "GadgetResult": "t4proof",
    "Graph": "graphs",
    "Infeasible": "orientation",
    "Orientation": "orientation",
    "OrientationReport": "orientation",
    "bipartition": "graphs",
    "check_left_pigeonhole": "t4proof",
    "decode_model": "cnf",
    "exists_proper_k": "exact",
    "export_cnf": "cnf",
    "generate": "generators",
    "k_orientation": "orientation",
    "mad_exact": "density",
    "min_degree": "graphs",
    "parse_graph": "graphs",
    "proper_bipartite_orientation": "orientation",
    "proper_orientation_number": "exact",
    "proper_three_orientation": "orientation",
    "pseudoarboricity": "density",
    "quadrangulation_number": "exact",
    "serialize_graph": "graphs",
    "verify_lower_bound_certificate": "t4proof",
    "verify_orientation": "orientation",
    "witness_four_orientation": "t4proof",
}

__all__ = list(_HOMES)


def __getattr__(name):
    """A public name, or a module of the package, on first read (PEP 562)."""
    home = _HOMES.get(name)
    if home is None:
        try:  # the import binds the module here, so this runs once per module
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # sys.modules first: import_module costs twice as much on every read
    module = sys.modules.get(f"{__name__}.{home}") or importlib.import_module(f"{__name__}.{home}")
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
