"""circiso: Type-1 and Type-2 isomorphism structure of circulant graphs.

Connection-set orbits under unit multiplication, the theta transform family
and its Type-2 orbits, Cartesian product constructions, and an independent
isomorphism oracle that certifies every claim with an explicit vertex
bijection.
"""

__version__ = "0.1.0"

from .circulant import (  # noqa: E402,F401
    Circulant,
    EdgeGraph,
    NotCirculant,
    is_connected,
    parse_graph,
    realize,
    symmetric_set,
)
from .iso_oracle import (  # noqa: F401
    IsoWitness,
    verify_circulant_witness,
    verify_witness,
)
from .products import (  # noqa: F401
    Product,
    product_coprime,
    product_witness,
    scan_conjecture,
)
from .residue import reflexive_reduce, units, valid_type2_params  # noqa: F401
from .type1 import (  # noqa: F401
    Type1Orbit,
    adams_apply,
    is_adams_isomorphic,
    type1_group_table,
    type1_set,
)
from .type2 import (  # noqa: F401
    ThetaClassification,
    ThetaMap,
    Type2Orbit,
    classify_theta,
    theta_compose,
    theta_image,
    theta_offsets,
    theta_vertex_map,
    type2_group_check,
    type2_set,
)
