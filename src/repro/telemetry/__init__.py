"""Monitoring and dataset assembly.

Mirrors the paper's data-collection methodology (Sec. 2.2): continuous
node-level monitoring samples RAPL once per minute (averaged, not
instantaneous); the monitoring stream is joined with the batch system's
accounting records to produce job-level aggregates for *all* jobs, and
full time-resolved node×minute power matrices for an instrumented subset
of key applications (the paper logged those for one month).
"""

from repro.telemetry.dataset import JobDataset, generate_dataset
from repro.telemetry.sampler import GpuSampler, PowerSampler
from repro.telemetry.samples_schema import (
    SAMPLE_COLUMNS,
    load_samples,
    samples_table,
    save_samples,
    traces_from_samples,
)
from repro.telemetry.schema import (
    JOB_COLUMNS,
    OPTIONAL_JOB_COLUMNS,
    load_jobs_csv,
    save_jobs_csv,
)
from repro.telemetry.trace import JobPowerTrace

__all__ = [
    "PowerSampler",
    "GpuSampler",
    "JobPowerTrace",
    "JobDataset",
    "generate_dataset",
    "JOB_COLUMNS",
    "OPTIONAL_JOB_COLUMNS",
    "SAMPLE_COLUMNS",
    "samples_table",
    "save_samples",
    "load_samples",
    "traces_from_samples",
    "save_jobs_csv",
    "load_jobs_csv",
]
