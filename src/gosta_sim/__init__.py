"""Gossip-based decentralized estimation of pairwise statistics.

Simulators for propagation-plus-averaging gossip protocols and their
baselines, exact expected-dynamics oracles, spectral convergence-bound
calculators, and an experiment harness with reproducible seeding.
"""

from .bounds import (async_constants, bound_report, fit_rate,
                     sync_error_bound, u2_error_bound)
from .engines import (EngineConfig, Trace,
                      relative_error, run_boyd,
                      run_flooding, run_gosta_async, run_gosta_sync,
                      run_master_node, run_protocol, run_u1, run_u2)
from .expectation import (boyd_expectation, every_checkpoints,
                          geometric_checkpoints, gosta_async_expectation,
                          gosta_sync_expectation, u1_expectation,
                          u2_expectation)
from .graph import (Graph, GraphDiagnostics, diagnose, laplacian,
                    make_complete, make_graph, make_grid2d,
                    make_watts_strogatz, read_graph_file, write_graph_file)
from .harness import (AggregateResult, ExperimentSpec, load_experiment,
                      reaching_time, run_experiment, synth_gaussian_mixture,
                      synth_two_class, table1)
from .kernels import (DesignMatrix, KernelMatrix, KernelSpec, LabeledDataset,
                      Partition, auc_kernel, auc_value, build_kernel_matrix,
                      scatter_kernel, variance_kernel)
from .spectral import (SpectralSummary, beta_second_smallest,
                       laplacian_eigh, spectral_summary)

__version__ = "0.1.0"
