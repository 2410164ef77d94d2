"""Compositional game theory over finite carriers.

The package builds open games by composing a small stack of constructions:
a lens arrow over pairs of finite sets, an equilibrium bimodule valued in
a commutative monoid, and a strategy-indexing colimit.  Every coherence
law the constructions rely on is checkable exhaustively on small carriers
via :mod:`openarrows.laws`, and example games can be solved and checked
against a brute-force Nash oracle via the ``openarrows`` CLI.
"""

from .finset import (  # noqa: F401
    BOOL_AND,
    UNIT,
    WITNESSES,
    Dist,
    FinFun,
    FinSet,
    Monoid,
    Rat,
    STAR,
    all_funs,
    product,
    dist_bind,
    dist_pure,
    fun_compose,
    structural_iso,
)
from .base import PAIR, PAIR_I, SET, BaseMap, PairObj  # noqa: F401
from .lens import Lens, lens_arrow, lens_comp, lens_pure, lens_strength  # noqa: F401
from .arrow import (  # noqa: F401
    ArrowInstance,
    arrow_tensor,
    dimap,
    hom_arrow,
    left_strength,
)
from .bimodule import (  # noqa: F401
    Bimodule,
    ContextStruct,
    CtxPair,
    MonoidOnProfunctor,
    ctx_of_arrow,
    eq_from_context,
    with_bimodule,
    with_eq,
)
from .grading import (  # noqa: F401
    GradedArrow,
    GradedBimodule,
    SizeError,
    fam,
    grade_by_param,
    hide,
    para,
)
from .optic import (  # noqa: F401
    Optic,
    embed_lens,
    optic_arrow,
    optic_canonicalize,
    optic_equiv,
    twisted_grading,
)
from .games import (  # noqa: F401
    NormalFormGame,
    OpenGame,
    decision,
    decisions_to_normal_form,
    equilibria,
    lift_covariant,
    lift_pure,
    nash_oracle,
    par,
    payoff_block,
    prob_decision,
    prob_payoff_block,
    seq,
    trivial_context,
)
from .laws import (  # noqa: F401
    LAWS,
    LawReport,
    MutantResult,
    run_mutants,
    run_suite,
)
from .gamefile import (  # noqa: F401
    GameFile,
    GameFileError,
    ParseError,
    build_game,
    fixture_path,
    format_game_file,
    parse_game_file,
    parse_game_text,
)
