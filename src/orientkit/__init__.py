"""orientkit: proper orientations of bipartite planar graphs.

k-orientations by path reversal, the switching construction for proper
(k+1)-orientations, exact maximum average degree, exact proper-orientation
numbers at desk scale, instance generators, and the tightness certificate
for the minimum-degree-2 family.
"""

__version__ = "0.1.0"

from .density import DensityReport, mad_exact, pseudoarboricity
from .exact import (
    ExactResult,
    exists_proper_k,
    proper_orientation_number,
    quadrangulation_number,
)
from .cnf import CnfDocument, decode_model, export_cnf
from .generators import FamilySpec, generate
from .graphs import (
    Bipartition,
    Graph,
    bipartition,
    min_degree,
    parse_graph,
    serialize_graph,
)
from .orientation import (
    Infeasible,
    Orientation,
    OrientationReport,
    k_orientation,
    proper_bipartite_orientation,
    proper_three_orientation,
    verify_orientation,
)
from .t4proof import (
    CertificateReport,
    GadgetResult,
    check_left_pigeonhole,
    verify_lower_bound_certificate,
    witness_four_orientation,
)

__all__ = [
    "Bipartition",
    "CertificateReport",
    "CnfDocument",
    "DensityReport",
    "ExactResult",
    "FamilySpec",
    "GadgetResult",
    "Graph",
    "Infeasible",
    "Orientation",
    "OrientationReport",
    "bipartition",
    "check_left_pigeonhole",
    "decode_model",
    "exists_proper_k",
    "export_cnf",
    "generate",
    "k_orientation",
    "mad_exact",
    "min_degree",
    "parse_graph",
    "proper_bipartite_orientation",
    "proper_orientation_number",
    "proper_three_orientation",
    "pseudoarboricity",
    "quadrangulation_number",
    "serialize_graph",
    "verify_lower_bound_certificate",
    "verify_orientation",
    "witness_four_orientation",
]
