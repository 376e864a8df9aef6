"""Simulated coherence, CNOT-chain, CCNOT and inverse-QFT experiments on
connectivity-constrained qubit lattices, with T1/T2 noise (exact outcome
distributions, or bit-flip trajectories for classical circuits), f1/f2
fidelity scoring, and decay-curve fitting."""

__version__ = "0.1.0"

from .simulator import Circuit, GateOp  # noqa: F401
from .topology import (  # noqa: F401
    CouplingGraph,
    GeometryPlacement,
    TopologyError,
    chain_paths,
    enumerate_linear_triples,
    enumerate_six_rings,
    enumerate_stars,
    load_graph,
    ring_placements,
    shipped_poughkeepsie,
    validate_circuit,
)
from .noise import (  # noqa: F401
    CalibrationError,
    DeviceCalibration,
    DurationModel,
    QubitNoiseParams,
    ScheduledCircuit,
    default_calibration,
    derive_tphi,
    load_calibration,
    run_shots,
    schedule,
)
from .fitting import (  # noqa: F401
    FidelityReport,
    FitResult,
    fidelity,
    fit_damped_cosine,
    fit_exponential,
    theoretical_qpe_distribution,
)
