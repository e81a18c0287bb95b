"""Exact analysis of infinitely repeated two-player games played by finite-state machines."""

from .games import (
    PRISONERS_DILEMMA,
    ParseError,
    PayoffProfile,
    StageGame,
    forcing_actions,
    is_enforceable,
    is_strictly_enforceable,
    minmax,
    opponent,
    parse_game,
    parse_rational,
)
from .machines import (
    ComplexityReport,
    EquivalenceClasses,
    Machine,
    Play,
    Relation,
    canonical_form,
    classify_states,
    constant_machine,
    equivalence_relation,
    finite_mean_payoff,
    grim_trigger,
    limit_mean_payoff,
    machine_to_dot,
    machine_to_text,
    parse_machine,
    played_states,
    simulate,
    validate_machine,
)
from .sequences import (
    ActionSeq,
    build_internal_threat_machines,
    build_trigger_machines,
    incompatible,
    is_foolable,
    is_irreducible,
    is_rigid,
    is_strictly_enforceable_seq,
    parse_sequence,
    seq_payoff,
    suffix_classes,
)
from .cycles import (
    MachinePath,
    best_response_value,
    construct_best_response,
    is_sequence_forcing,
    max_mean_cycle,
    path_payoff,
)
from .equilibrium import (
    Certificate,
    Measure,
    SearchBound,
    Verdict,
    default_bound,
    enumerate_machines,
    is_abreu_rubinstein,
    is_best_response,
    is_lean,
    is_nash,
    measure_value,
    simplify_to_lean,
)
from .structure import (
    ChainDecomposition,
    InferenceReport,
    StructureAudit,
    audit_pair,
    chain_decompose,
    check_counting,
    check_first_reuse,
    check_relation_equalities,
    infer_machines,
)

__version__ = "0.1.0"
