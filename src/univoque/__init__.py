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

``import univoque`` loads none of them.  Each layer loads on first use,
when one of its names (``univoque.r_of_m``) or the layer itself
(``univoque.critical``) is first read, together with the layers it
imports: ``critical``, ``uniqueness`` and ``automata`` read
``sequences``.  Likewise each subcommand of ``univoque`` loads only
what it runs: ``pi`` loads ``sequences``, ``check`` adds
``uniqueness``, ``scan-curve`` ``critical``, ``automaton``
``automata`` (and ``uniqueness`` for ``--scan``), and ``selftest``
all of them with the suites in :mod:`univoque.selftest`, which
nothing else loads.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names of each layer, the one list of them
_LAYERS = {
    "sequences": "EPS_CMP Alphabet EPSeq NotationError Word format_seq parse_seq "
                 "pi_complement pi_eval pi_word",
    "uniqueness": "Verdict VerdictKind Witness certify_family check_univoque_general "
                  "check_v_membership is_forbidden_block scan_forbidden",
    "critical": "Branch Constants P R bisect_root branch_for branches compute_constants "
                "p_of_m r_of_m solve_pi_root",
    "automata": "Automaton GrowthClass GrowthKind build_safety_automaton classify_growth "
                "count_words export_dot growth_rate strongly_connected_components",
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names.split()}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """Load the layer that ``name`` is, or that defines it (PEP 562)."""
    if name in _LAYERS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYERS, *__all__})
