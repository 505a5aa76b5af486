"""2D extended finite element solver for linear elastic fracture mechanics.

Cracks are represented as polylines independent of a fixed background mesh
of bilinear quads.  Displacement jumps and crack-tip singularities enter
through Heaviside and branch-function enrichment; stress intensity factors
come from a domain-form interaction integral; quasi-static growth follows the
maximum hoop stress direction.
"""

from xfem2d.mesh import (
    Mesh,
    QuadratureRule,
    MeshFormatError,
    load_mesh,
    dump_mesh,
    read_mesh,
    write_mesh,
    gauss_rule,
    locate_hits,
    locate_points,
)
from xfem2d.cracks import (
    CrackGeometryError,
    CrackPath,
    TipFrame,
    extend_crack,
    heaviside,
    tip_frame,
)
from xfem2d.enrichment import (
    CrackMeshDegeneracyError,
    EnrichmentError,
    EnrichmentMap,
    FieldTriplet,
    TipInfo,
    branch_eval,
    classify_enrichment,
    classify_with_remedy,
    crack_opening,
    shifted_heaviside,
)
from xfem2d.assembly import (
    AssemblyError,
    BoundaryCondition,
    DofLayout,
    LinearSystem,
    MaterialModel,
    QuadratureSet,
    SolutionState,
    SolverError,
    apply_constraints,
    assemble,
    elasticity_matrix,
    solve,
    stress_strain_batch,
)
from xfem2d.fracture import (
    FractureError,
    SifResult,
    auxiliary_fields,
    direct_j_integral,
    extract_sifs,
    j_from_sifs,
    k_equivalent,
    propagation_angle,
    tip_clearance,
    tip_rings,
    williams_displacement,
)
from xfem2d.driver import (
    ExtensionEvent,
    FreezeEvent,
    LoadSchedule,
    Problem,
    PropagationParams,
    RunHistory,
    StepRecord,
    cod_profile,
    energy_error_norm,
    run_propagation,
    run_stationary,
    setup_problem,
    stationary_history,
    tip_trajectory,
)
from xfem2d.config import (
    ConfigError,
    ContourSpec,
    OutputSpec,
    RunConfig,
    dump_config,
    load_config,
    parse_config,
    serialize_config,
)
from xfem2d.output import (
    read_sif_csv,
    write_cod_csv,
    write_field_dump,
    write_run_log,
    write_sif_csv,
)

__version__ = "0.1.0"
