"""Campaign execution runtime.

Process-pool Monte Carlo execution with content-addressed result
caching, checkpoint/resume and run telemetry.  See DESIGN.md
("Campaign runtime") for the architecture.
"""

from .cache import CacheMiss, ResultCache, atomic_write
from .chaos import KILL_EXIT_CODE, ChaosConfig, ChaosSpecError
from .checkpoint import CampaignCheckpoint
from .executors import (FAILED, PoisonTask, ProcessPoolExecutor,
                        SerialExecutor, TaskOutcome, TaskTimeout,
                        WorkerCrash, WorkerError, backoff_schedule,
                        default_n_jobs)
from .hashing import canonical_token, stable_hash, stable_hashes
from .runner import (DEFAULT_BATCH_SIZE, DEFAULT_CACHE_DIR, CampaignRun,
                     Runtime, check_batch_size)
from .schema import (SCHEMA_VERSION, SchemaVersionError,
                     check_schema_version)
from .stats import (SolverStats, current_stats, record, root_stats,
                    stats_scope)
from .telemetry import RunReport
from .trace import TraceWriter, read_trace

__all__ = [
    "Runtime", "CampaignRun", "RunReport", "DEFAULT_CACHE_DIR",
    "DEFAULT_BATCH_SIZE", "check_batch_size",
    "SerialExecutor", "ProcessPoolExecutor", "TaskOutcome", "FAILED",
    "WorkerError", "TaskTimeout", "WorkerCrash", "PoisonTask",
    "default_n_jobs", "backoff_schedule",
    "ChaosConfig", "ChaosSpecError", "KILL_EXIT_CODE",
    "ResultCache", "CacheMiss", "atomic_write", "CampaignCheckpoint",
    "stable_hash", "stable_hashes", "canonical_token",
    "SCHEMA_VERSION", "SchemaVersionError", "check_schema_version",
    "SolverStats", "stats_scope", "current_stats",
    "root_stats", "record", "TraceWriter", "read_trace",
]
