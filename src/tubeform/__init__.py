"""Tube-certified distributed MPC for leader-follower formations on integrator chains."""

from .barrier import EcbfCoefficients, assemble_row, lie_derivatives
from .certify import (
    GainSpec,
    LeaderCertificate,
    TubeCertificate,
    baseline_radius,
    build_lyapunov_pair,
    effective_disturbance,
    follower_radius,
    input_tightening,
    leader_radius,
    synth_gain,
)
from .graph import (
    CommGraph,
    GlobalBoundCertificate,
    global_bound,
    min_singular_value,
)
from .linalg import eig_sym, rk4_step, solve_continuous_lyapunov
from .models import (
    AgentModel,
    Box,
    BrunovskyDims,
    DriftTable,
    DriftTerm,
    LyapunovPair,
    Obstacle,
    chain_matrices,
)
from .ocp import (
    BarrierRows,
    OcpSolution,
    OcpSpec,
    build_qp,
    discretize_error_dynamics,
    solve_ocp,
    terminal_ingredients,
)
from .pipeline import CertificationResult, certify_scenario, write_certificate
from .protocol import MessageBoard, initial_broadcast, relay_leader, shift_plan
from .qp import QpProblem, QpSolution, solve_qp
from .scenario import ScenarioConfig, load_scenario, parse_scenario, scenario_hash
from .sim import SimConfig, SimTrace, apply_control, run_simulation, trace_metrics

__version__ = "0.1.0"
