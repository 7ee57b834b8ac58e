"""fermient: fermionic states, reduced density matrices, entropy bounds.

Layered as: fockbasis (combinatorics) -> hermlin (dense Hermitian linear
algebra) -> statekit (state constructors, file format) -> rdmcore (reductions
and tensor embeddings) -> entmeasures (entropies and bound evaluators) ->
suites (the bound suites of `fermient verify`) -> cli (harness). Beside the
stack sits report (bound reports and the text encoding: the one file reader
and writer, record rule, number format and JSON escaping). Everything
numeric is deterministic for fixed seeds.
"""

__version__ = "0.1.0"

from .config import CAP, TOL, Capacities, Tolerances
from .errors import (CapacityError, FermientError, InvalidModeSetError,
                     NonDisjointError, NormalizationError, NotPSDError,
                     NumericalError, RangeError, ShapeError)
from .fockbasis import (RankedBasis, binom, colex_masks, enumerate_supersets,
                        merge_sign, modes_of, modeset, rank, unrank)
from .hermlin import (Spectrum, as_hermitian, eig_herm, kron, psd_root,
                      sqrt_from_spectrum, sqrt_psd, support, trace_product)
from .statekit import (MixedStateN, PureStateN, YangParams, as_mixture,
                       chi_pair_vector, convex_mixture, dumps_state,
                       load_state, loads_state, pair_modes, random_pure_state,
                       save_state, slater_state, wedge_density, yang_state)
from .rdmcore import (PHYSICS, UNIT, ReducedDM, TensorDM, brute_force_reduce,
                      dumps_rdm, embed_state_full, embed_wedge_to_tensor,
                      load_rdm, loads_rdm, project_antisymmetric, ptrace_rdm,
                      random_two_party_dm, reduce_mixed, reduce_pure, rescale,
                      save_rdm, tensor_ptrace)
from .report import BoundReport, bound_report, fmt17, report_json_line
from .entmeasures import (EfOptions, EfResult, EnsembleDecomposition,
                          ExtensionSpec, MinS2Options, MinS2Result,
                          YangAnalytics, ef_exact_m4, ef_fermionic_excess,
                          ef_optimize, elem_sym, elem_sym_det, elem_sym_direct,
                          entropy_of_probs, extension_spec_from_tripartite,
                          min_s2_search, mutual_info_bounds, nbody_elem_bound,
                          purity, slater_extension_spec, slater_squashed_bound,
                          squashed_extension_value, state_entropy,
                          subadd_remainder, subadd_remainder_n, vn_entropy,
                          yang_analytics)
from .corpus import CorpusEntry, build_corpus
