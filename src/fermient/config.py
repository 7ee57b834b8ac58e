"""Centralized numerical tolerances and capacity guards.

Tolerances are the run's record: `--tol` may set any of them, and the
resolved record is embedded in every output header, so a run can be
reproduced from it. Each field is read, and decides something no other field
decides: `unit_trace` judges every trace against the normalization its matrix
claims (a physics fermirdm file's too, whose N `loads_rdm` takes as the n
with C(n, k) nearest the trace). Every tolerance is a float, as `--tol`
parses it.
Capacities are fixed limits that no option or parameter sets: each guard
reads them as its module's `CAP`, and they are not embedded in outputs.
`tensor_dim` bounds every dense matrix (the dense subadditivity input,
`wedge_density` and `random_two_party_dm` included) and, by bytes, every
reduction's gather table.
The other fixed limits live beside their code:
  * `suites`' ROUTE_MATCH, CLOSED_FORM_MATCH and EF_FLOOR_GRACE;
  * the descent constants of `entmeasures` (_DESCENT_STEPS, _ARMIJO,
    _GRAD_FLOOR, _STEP_FLOOR, _ROUNDING, _FLOOR_GAP, _LOG_CLIP; _FLOOR_GAP
    also decides `ef_optimize`'s restart ties), `ef_optimize`'s _STATIONARY,
    the squared gradient norm at most which a winner off the floor reads
    `converged`, and `min_s2_search`'s byte budget for the gathered G of one
    group of restarts (_S2_GROUP_BYTES);
  * `entmeasures._TINY` = 1e-18, below which `_spectrum_contribs` takes an
    eigenvalue, or a Gram's trace, as zero;
  * `fockbasis.MAX_MODES` = 64, the width of the uint64 mode bitmasks;
  * `_finish`'s 1e-14 floor on an E_f member's weight;
  * `yang_analytics`' 1e-12 check that the closed-form spectrum sums to 1;
  * `PureStateN`'s 1e-12 norm check and `convex_mixture`'s 1e-9 weight sum.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # matrix symmetry/validation
    hermiticity: float = 1e-12
    unit_trace: float = 1e-8         # |tr - expected| <= this * max(expected, 1)
    # eigensolver
    eig_residual: float = 1e-9       # relative max |A u - lambda u|; also the
                                     # eigenvalue degeneracy gap
    # spectral functions
    support_cutoff: float = 1e-12    # eigenvalues below this are treated as 0
    psd_fail: float = 1e-6           # negatives beyond this raise NotPSDError
    sqrt_square: float = 1e-8        # relative max |R R - A| past the clamp
    # bound evaluation
    bound_slack: float = 1e-9        # holds <=> slack >= -bound_slack


@dataclass(frozen=True)
class Capacities:
    state_dim: int = 200_000         # max antisymmetric basis dimension
    tensor_dim: int = 4096           # max dense matrix dimension; a gather table
                                     # holds at most the bytes of such a matrix
    brute_force: int = 100_000       # max M**N for the dense oracle
    elem_terms: int = 1_000_000      # max subset-sum terms in elem_sym_direct
    ef_rank: int = 64                # max support rank accepted by ef_optimize


TOL = Tolerances()
CAP = Capacities()
