"""Simulated crowdsourcing platform: oracles, workers, ledgers, sessions."""

from .faults import FaultInjector
from .ledger import CostLedger, LatencyLedger
from .oracle import (
    BinaryOracle,
    HistogramOracle,
    JudgmentOracle,
    LatentScoreOracle,
    RecordDatabaseOracle,
    UserTableOracle,
)
from .pool import RacingPool
from .session import CrowdSession
from .timeline import WallClockEstimate, project_wall_clock
from .workers import CarelessWorkerNoise, GaussianNoise, WorkerNoise
from .workforce import (
    AnswerRecord,
    Workforce,
    WorkforceOracle,
    WorkerProfile,
    estimate_worker_accuracy,
)

__all__ = [
    "BinaryOracle",
    "CarelessWorkerNoise",
    "CostLedger",
    "CrowdSession",
    "FaultInjector",
    "WallClockEstimate",
    "project_wall_clock",
    "GaussianNoise",
    "HistogramOracle",
    "JudgmentOracle",
    "LatencyLedger",
    "LatentScoreOracle",
    "RacingPool",
    "RecordDatabaseOracle",
    "UserTableOracle",
    "WorkerNoise",
    "AnswerRecord",
    "Workforce",
    "WorkforceOracle",
    "WorkerProfile",
    "estimate_worker_accuracy",
]
