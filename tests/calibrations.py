"""Calibrations built in place for tests."""
import math

from nisq_lab.noise import DeviceCalibration, DurationModel, QubitNoiseParams


def flat_cal(n, t1=math.inf, t2=math.inf, omega=0.0, readout=0.0, p2=0.0, durations=None):
    """n qubits with the same parameters; every channel off by default."""
    return DeviceCalibration(
        qubits=tuple(QubitNoiseParams(t1=t1, t2=t2, omega=omega, readout_error=readout)
                     for _ in range(n)),
        durations=durations or DurationModel(),
        two_qubit_error=p2,
    )
