"""Unique expansions in non-integer bases over the alphabet {0, 1, m}.

The package has four layers:

* :mod:`univoque.sequences` -- digit alphabets, eventually periodic
  sequences, their notation, and pi_q evaluation;
* :mod:`univoque.uniqueness` -- uniqueness verdicts, forbidden-block
  tests, and certificates for block families;
* :mod:`univoque.critical` -- the threshold curves P, R, p, r and the
  solved constants between them;
* :mod:`univoque.automata` -- safety automata for block avoidance and
  their growth classification.
"""

from .automata import (
    Automaton,
    GrowthClass,
    GrowthKind,
    build_safety_automaton,
    classify_growth,
    count_words,
    export_dot,
    growth_rate,
    strongly_connected_components,
)
from .critical import (
    Branch,
    Constants,
    CrossoverCheck,
    P,
    R,
    SignCheck,
    SignSuiteReport,
    appendix_sign_suite,
    bisect_root,
    branch_for,
    branches,
    compute_constants,
    default_m_grid,
    locate_crossovers,
    p_of_m,
    r_of_m,
    solve_pi_root,
)
from .sequences import (
    EPS_CMP,
    Alphabet,
    ApproxValue,
    EPSeq,
    NotationError,
    Word,
    format_seq,
    parse_seq,
    pi_complement,
    pi_eval,
    pi_word,
    shift,
)
from .uniqueness import (
    FamilySpec,
    Verdict,
    VerdictKind,
    Witness,
    certify_family,
    check_univoque_general,
    check_v_membership,
    is_forbidden_block,
    scan_forbidden,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "ApproxValue",
    "Automaton",
    "Branch",
    "Constants",
    "CrossoverCheck",
    "EPSeq",
    "EPS_CMP",
    "FamilySpec",
    "GrowthClass",
    "GrowthKind",
    "NotationError",
    "P",
    "R",
    "SignCheck",
    "SignSuiteReport",
    "Verdict",
    "VerdictKind",
    "Witness",
    "Word",
    "appendix_sign_suite",
    "bisect_root",
    "branch_for",
    "branches",
    "build_safety_automaton",
    "certify_family",
    "check_univoque_general",
    "check_v_membership",
    "classify_growth",
    "compute_constants",
    "count_words",
    "default_m_grid",
    "export_dot",
    "format_seq",
    "growth_rate",
    "is_forbidden_block",
    "locate_crossovers",
    "p_of_m",
    "parse_seq",
    "pi_complement",
    "pi_eval",
    "pi_word",
    "r_of_m",
    "scan_forbidden",
    "shift",
    "solve_pi_root",
    "strongly_connected_components",
    "__version__",
]
