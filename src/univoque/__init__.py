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

The suites of ``univoque selftest`` live in :mod:`univoque.selftest`,
which ``import univoque`` does not load.
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
    P,
    R,
    bisect_root,
    branch_for,
    branches,
    compute_constants,
    p_of_m,
    r_of_m,
    solve_pi_root,
)
from .sequences import (
    EPS_CMP,
    Alphabet,
    EPSeq,
    NotationError,
    Word,
    format_seq,
    parse_seq,
    pi_complement,
    pi_eval,
    pi_word,
)
from .uniqueness import (
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
    "Automaton",
    "Branch",
    "Constants",
    "EPSeq",
    "EPS_CMP",
    "GrowthClass",
    "GrowthKind",
    "NotationError",
    "P",
    "R",
    "Verdict",
    "VerdictKind",
    "Witness",
    "Word",
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
    "export_dot",
    "format_seq",
    "growth_rate",
    "is_forbidden_block",
    "p_of_m",
    "parse_seq",
    "pi_complement",
    "pi_eval",
    "pi_word",
    "r_of_m",
    "scan_forbidden",
    "solve_pi_root",
    "strongly_connected_components",
    "__version__",
]
