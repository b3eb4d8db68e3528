"""Monte Carlo laboratory for separability/PPT probabilities of random
bipartite quantum states over Bloch radii and Casimir invariants."""

from .matrix_core import (min_pt_eigenvalue_batch, partial_trace_batch,
                          partial_transpose, purity_batch)
from .random_states import MeasureSpec, hilbert_schmidt, induced, state_batch
from .invariants import (cubic_casimir_batch, d_tensor, record_batch,
                         su_basis)
from .stats import (Axis, HistogramPair, JointHistogram, RatioEstimate,
                    fit_scale, flatness_test, ratio_with_ci)
from .formula import f_term, p_alpha, q_poly
from .runner import ExperimentConfig, export, run_experiment

__version__ = "0.1.0"

__all__ = [
    "min_pt_eigenvalue_batch", "partial_trace_batch", "partial_transpose",
    "purity_batch", "MeasureSpec", "hilbert_schmidt", "induced", "state_batch",
    "cubic_casimir_batch", "d_tensor", "record_batch", "su_basis", "Axis",
    "HistogramPair", "JointHistogram", "RatioEstimate", "fit_scale",
    "flatness_test", "ratio_with_ci", "f_term", "p_alpha", "q_poly",
    "ExperimentConfig", "export", "run_experiment",
]
