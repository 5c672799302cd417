"""Markov dynamics on interlacing integer arrays driven by Macdonald processes.

Core pieces: signature/array combinatorics (`arrays`), the Macdonald
polynomial kernel (`macdonald`), the nearest-neighbor slice classification
(`classifier`), deterministic insertions and word bijections (`insertions`),
the event-driven simulator with the q-TASEP / q-PushTASEP projections
(`simulator`), and exact/statistical verification oracles (`oracle`).
"""

from .arrays import InterlacingArray, Signature, add_box, enumerate_arrays, free_indices, interlaces, xi
from .classifier import (
    FundamentalKind,
    SliceContext,
    SliceSolution,
    S_quant,
    T_quant,
    check_system,
    decompose,
    fundamental,
    fundamental_kinds,
    left_pull,
    mix,
    pb,
    positivity_scan,
    recombine,
    right_push,
    rsk,
    solve_r,
    solve_w,
)
from .errors import (
    BlockedMove,
    Infeasible,
    InvalidInput,
    InvariantViolation,
    ResourceLimit,
    UnsupportedBasis,
)
from .insertions import TableauPair, f_h, group_order, h_insert, h_rs_forward, h_rs_inverse
from .macdonald import (
    MacdonaldP,
    MacParams,
    SCHUR,
    branch_phi,
    branch_psi,
    link_weight,
    mac_P,
    p_up,
    psi_prime_one_box,
    psi_prime_vertical,
    schur_plancherel_measure,
    schur_s,
    skew_P,
    skew_Q,
    univariate_rates,
)
from .oracle import TransientTable, compare_distributions, exact_transient, gibbs_check, identity_suite
from .simulator import DynamicsSpec, Event, QPushTasep, QTasep, run_ensemble, simulate

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
