"""fracseq: fractal curves encoded as normalized signed integer sequences.

The library has six layers: plain sequence algebra (`sequences`), signed
permutations (`perms`), substitution systems (`substitution`, `rulefile`),
Gray/Hilbert constructions (`gray`), geometric tracing and verification
(`geometry`, `render`), and the curve catalog with its CLI (`catalog`,
`cli`).  Every value is immutable and every operation is pure, so anything
here can be shared freely across threads.
"""

from .sequences import (
    Digiset,
    SignedSequence,
    UNBOUNDED,
    abs_seq,
    characteristic_perm,
    compare,
    concat,
    fold,
    inverse,
    is_normalized,
    minimal_normalized,
    negate,
    normalize,
    parse_sequence,
    reverse,
    seq,
    sort_key,
)
from .perms import (
    PermMatrix,
    SignedPermutation,
    apply,
    compose,
    from_matrix,
    generate_group,
    identity,
    invert,
    is_grid_isometry,
    named_perm,
    parity,
    parse_perm,
    power,
    to_matrix,
)
from .substitution import (
    ConnectorAtom,
    DigitRule,
    EdgewiseRule,
    PairRule,
    PostTransform,
    StateAtom,
    SubstitutionSystem,
    Term,
    WholeCurveRule,
    check_commutation,
    check_extending,
    expand_pairwise,
    expand_wholecurve,
    is_expansive,
    iterate,
    iterate_full,
)
from .gray import (
    HILBERT_SPECS,
    HilbertSpec,
    entry_point,
    gray_extended,
    gray_function,
    gray_sequence,
    gray_t1_system,
    gray_t2_system,
    hilbert_system,
    is_hyper_orthogonal,
    validate_hilbert_spec,
)
from .geometry import (
    Grid,
    Polyline,
    coverage_report,
    cubic_grid,
    dragon_axes_grid,
    eighth_roots_grid,
    honeycomb_grid,
    orientation,
    self_avoidance_report,
    sqrt2_pow,
    square_diagonal_grid,
    square_grid,
    successor_violations,
    trace,
    triangular_grid,
    truncated_square_grid,
)
from .render import RenderOptions, export_vertices, svg_export
from .catalog import (
    CatalogEntry,
    catalog_entries,
    catalog_list,
    export_bfile,
    generate_entry,
    get_entry,
    parse_bfile,
    verify_entry,
)

__version__ = "0.1.0"
