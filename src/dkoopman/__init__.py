"""Distributed Koopman operator learning over communication graphs."""

from .consensus import (AgentState, Partition, ReducedStates, RunTrace, SolverGains,
                        SpectralReport, Start, compute_alpha_max, compute_rho_max,
                        initial_states, iterate_rounds, manual_gains, partition_data,
                        run, semi_hurwitz_check, spectral_report, step, tail_contraction)
from .edmd import (Dictionary, KoopmanModel, LiftedData, SnapshotSequence,
                   centralized_solve, lift, monomial_dictionary, objective,
                   parse_dictionary, radial_dictionary, rollout, vectorization_dictionary)
from .graphs import (Graph, build_graph, is_connected, laplacian, parse_graph_text,
                     preset_graph)
from .linalg import Spectrum, eigenvalues, pseudoinverse, spectrum_distance
from .scenario import (ExperimentReport, GridScenario, build_instance, make_experiment,
                       sequential_widths, simulate_frames)

__version__ = "0.1.0"
