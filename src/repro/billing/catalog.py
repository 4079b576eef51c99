"""Per-platform billing models: the paper's Table 1 encoded as data.

Each entry instantiates :class:`repro.billing.models.BillingModel` with the
billable-time notion, billable resources, granularities, minimum cutoffs and
invocation fee the paper reports for that platform (snapshot of 2025-05-15).
The per-unit prices below are attached to the resource definitions so that an
invoice can be produced directly from a catalog entry.  This is the only place
a unit price is written down: Figure 1's table (:mod:`repro.billing.pricing`)
and the cost decomposition read them from here.

Unit conventions throughout: CPU in vCPUs, memory in GB, time in seconds.
"""

from __future__ import annotations

import enum
from typing import Dict, List

from repro.billing.models import (
    AllocationBilledResource,
    BillableTime,
    BillingModel,
    UsageBilledResource,
)
from repro.billing.units import MB, MILLISECONDS, ResourceKind

__all__ = ["PlatformName", "PLATFORM_BILLING_MODELS", "get_billing_model", "list_platforms"]


class PlatformName(str, enum.Enum):
    """Platforms analysed in the paper's Table 1."""

    AWS_LAMBDA = "aws_lambda"
    GCP_RUN_REQUEST = "gcp_run_request"
    GCP_RUN_INSTANCE = "gcp_run_instance"
    AZURE_CONSUMPTION = "azure_consumption"
    AZURE_PREMIUM = "azure_premium"
    AZURE_FLEX = "azure_flex"
    IBM_CODE_ENGINE = "ibm_code_engine"
    HUAWEI_FUNCTIONGRAPH = "huawei_functiongraph"
    ALIBABA_FC = "alibaba_fc"
    ORACLE_FUNCTIONS = "oracle_functions"
    VERCEL_FUNCTIONS = "vercel_functions"
    CLOUDFLARE_WORKERS = "cloudflare_workers"


# ----------------------------------------------------------------------
# Per-unit prices (USD), public list prices as of the paper's 2025-05-15
# snapshot.  Where the paper quotes a specific composite number we match it:
# e.g. GCP gen1 with 1 vCPU + 1769 MB costs $2.8319e-5 / s and AWS Lambda with
# 1769 MB costs $2.8792e-5 / s (x86 figures used in §2.2).
# ----------------------------------------------------------------------

AWS_LAMBDA_MEMORY_PRICE = 1.66667e-5  # $ per GB-second (CPU embedded)
AWS_LAMBDA_INVOCATION_FEE = 2.0e-7

GCP_CPU_PRICE = 2.4e-5  # $ per vCPU-second (request-based, gen1)
GCP_MEMORY_PRICE = 2.5e-6  # $ per GB-second
GCP_INVOCATION_FEE = 4.0e-7
GCP_INSTANCE_CPU_PRICE = 1.8e-5  # $ per vCPU-second (instance-based tier)
GCP_INSTANCE_MEMORY_PRICE = 2.0e-6

AZURE_CONSUMPTION_MEMORY_PRICE = 1.6e-5  # $ per GB-second of observed memory
AZURE_CONSUMPTION_INVOCATION_FEE = 2.0e-7
AZURE_FLEX_MEMORY_PRICE = 1.6e-5
AZURE_FLEX_INVOCATION_FEE = 4.0e-7
AZURE_PREMIUM_CPU_PRICE = 1.22e-5  # $ per vCPU-second, billed on instance lifespan
AZURE_PREMIUM_MEMORY_PRICE = 8.7e-7

IBM_CPU_PRICE = 3.431e-5  # $ per vCPU-second
IBM_MEMORY_PRICE = 3.56e-6  # $ per GB-second (CPU/mem ratio 9.64, §2.2)
IBM_INVOCATION_FEE = 0.0

HUAWEI_MEMORY_PRICE = 1.825e-5  # $ per GB-second (fixed CPU-memory combos)
HUAWEI_INVOCATION_FEE = 2.0e-7

ALIBABA_CPU_PRICE = 1.27e-5  # $ per vCPU-second
ALIBABA_MEMORY_PRICE = 1.32e-6  # $ per GB-second
ALIBABA_INVOCATION_FEE = 1.5e-7

ORACLE_MEMORY_PRICE = 1.417e-5  # $ per GB-second
ORACLE_INVOCATION_FEE = 2.0e-7

VERCEL_MEMORY_PRICE = 1.8e-5  # $ per GB-second
VERCEL_INVOCATION_FEE = 6.0e-7

CLOUDFLARE_CPU_PRICE = 2.0e-5  # $ per consumed vCPU-second ($0.02 per million CPU-ms)
CLOUDFLARE_INVOCATION_FEE = 3.0e-7


def _build_catalog() -> Dict[PlatformName, BillingModel]:
    catalog: Dict[PlatformName, BillingModel] = {}

    catalog[PlatformName.AWS_LAMBDA] = BillingModel(
        platform=PlatformName.AWS_LAMBDA.value,
        billable_time=BillableTime.TURNAROUND,
        time_granularity_s=1 * MILLISECONDS,
        allocation_resources=(
            AllocationBilledResource(
                kind=ResourceKind.MEMORY,
                granularity=1 * MB,
                unit_price=AWS_LAMBDA_MEMORY_PRICE,
            ),
        ),
        invocation_fee=AWS_LAMBDA_INVOCATION_FEE,
        cpu_embedded_in_memory=True,
        notes=(
            "Bills allocated memory in 1 MB steps over wall-clock turnaround time "
            "(initialisation included since August 2025); vCPUs are allocated "
            "proportionally to memory (1769 MB == 1 vCPU) and their cost is embedded "
            "in the memory price."
        ),
    )

    catalog[PlatformName.GCP_RUN_REQUEST] = BillingModel(
        platform=PlatformName.GCP_RUN_REQUEST.value,
        billable_time=BillableTime.TURNAROUND,
        time_granularity_s=100 * MILLISECONDS,
        allocation_resources=(
            AllocationBilledResource(
                kind=ResourceKind.CPU,
                granularity=0.01,
                unit_price=GCP_CPU_PRICE,
            ),
            AllocationBilledResource(
                kind=ResourceKind.MEMORY,
                granularity=1 * MB,
                unit_price=GCP_MEMORY_PRICE,
            ),
        ),
        invocation_fee=GCP_INVOCATION_FEE,
        notes=(
            "Request-based billing: allocated CPU (0.01 vCPU steps, gen1) and memory "
            "over wall-clock turnaround time rounded up to 100 ms."
        ),
    )

    catalog[PlatformName.GCP_RUN_INSTANCE] = BillingModel(
        platform=PlatformName.GCP_RUN_INSTANCE.value,
        billable_time=BillableTime.INSTANCE,
        time_granularity_s=100 * MILLISECONDS,
        allocation_resources=(
            AllocationBilledResource(
                kind=ResourceKind.CPU,
                granularity=1.0,
                unit_price=GCP_INSTANCE_CPU_PRICE,
            ),
            AllocationBilledResource(
                kind=ResourceKind.MEMORY,
                granularity=1 * MB,
                unit_price=GCP_INSTANCE_MEMORY_PRICE,
            ),
        ),
        invocation_fee=0.0,
        notes=(
            "Instance-based billing: allocated CPU (whole vCPUs) and memory over the "
            "instance lifespan regardless of requests; no invocation fee."
        ),
    )

    catalog[PlatformName.AZURE_CONSUMPTION] = BillingModel(
        platform=PlatformName.AZURE_CONSUMPTION.value,
        billable_time=BillableTime.EXECUTION,
        time_granularity_s=1 * MILLISECONDS,
        minimum_time_s=100 * MILLISECONDS,
        allocation_resources=(
            AllocationBilledResource(
                kind=ResourceKind.MEMORY,
                granularity=128 * MB,
                unit_price=AZURE_CONSUMPTION_MEMORY_PRICE,
                use_consumption=True,
            ),
        ),
        invocation_fee=AZURE_CONSUMPTION_INVOCATION_FEE,
        notes=(
            "Bills observed (consumed) memory rounded up to 128 MB over wall-clock "
            "execution time at 1 ms granularity with a 100 ms minimum; fixed 1.5 GB / "
            "1 vCPU instance size."
        ),
    )

    catalog[PlatformName.AZURE_PREMIUM] = BillingModel(
        platform=PlatformName.AZURE_PREMIUM.value,
        billable_time=BillableTime.INSTANCE,
        time_granularity_s=0.0,
        allocation_resources=(
            AllocationBilledResource(
                kind=ResourceKind.CPU,
                granularity=1.0,
                unit_price=AZURE_PREMIUM_CPU_PRICE,
            ),
            AllocationBilledResource(
                kind=ResourceKind.MEMORY,
                granularity=0.5,
                unit_price=AZURE_PREMIUM_MEMORY_PRICE,
            ),
        ),
        invocation_fee=0.0,
        notes=(
            "Instance-based billing on pre-provisioned fixed vCPU/memory combos; a "
            "minimum monthly charge applies (not modelled at per-request scope)."
        ),
    )

    catalog[PlatformName.AZURE_FLEX] = BillingModel(
        platform=PlatformName.AZURE_FLEX.value,
        billable_time=BillableTime.EXECUTION,
        time_granularity_s=100 * MILLISECONDS,
        minimum_time_s=1.0,
        allocation_resources=(
            AllocationBilledResource(
                kind=ResourceKind.MEMORY,
                granularity=2.0,
                unit_price=AZURE_FLEX_MEMORY_PRICE,
            ),
        ),
        invocation_fee=AZURE_FLEX_INVOCATION_FEE,
        cpu_embedded_in_memory=True,
        notes=(
            "Bills allocated memory (2 GB or 4 GB instance sizes) over execution time "
            "rounded to 100 ms with a 1 s minimum; CPU allocated proportionally."
        ),
    )

    catalog[PlatformName.IBM_CODE_ENGINE] = BillingModel(
        platform=PlatformName.IBM_CODE_ENGINE.value,
        billable_time=BillableTime.TURNAROUND,
        time_granularity_s=100 * MILLISECONDS,
        allocation_resources=(
            AllocationBilledResource(
                kind=ResourceKind.CPU,
                granularity=0.125,
                unit_price=IBM_CPU_PRICE,
            ),
            AllocationBilledResource(
                kind=ResourceKind.MEMORY,
                granularity=0.25,
                unit_price=IBM_MEMORY_PRICE,
            ),
        ),
        invocation_fee=IBM_INVOCATION_FEE,
        notes=(
            "Bills allocated CPU and memory (fixed combos) over wall-clock turnaround "
            "time at 100 ms granularity; no per-request fee."
        ),
    )

    catalog[PlatformName.HUAWEI_FUNCTIONGRAPH] = BillingModel(
        platform=PlatformName.HUAWEI_FUNCTIONGRAPH.value,
        billable_time=BillableTime.EXECUTION,
        time_granularity_s=1 * MILLISECONDS,
        allocation_resources=(
            AllocationBilledResource(
                kind=ResourceKind.MEMORY,
                granularity=128 * MB,
                unit_price=HUAWEI_MEMORY_PRICE,
            ),
        ),
        invocation_fee=HUAWEI_INVOCATION_FEE,
        cpu_embedded_in_memory=True,
        notes=(
            "Bills allocated memory (fixed CPU-memory combos) over execution time at "
            "1 ms granularity."
        ),
    )

    catalog[PlatformName.ALIBABA_FC] = BillingModel(
        platform=PlatformName.ALIBABA_FC.value,
        billable_time=BillableTime.EXECUTION,
        time_granularity_s=1 * MILLISECONDS,
        allocation_resources=(
            AllocationBilledResource(
                kind=ResourceKind.CPU,
                granularity=0.05,
                unit_price=ALIBABA_CPU_PRICE,
            ),
            AllocationBilledResource(
                kind=ResourceKind.MEMORY,
                granularity=64 * MB,
                unit_price=ALIBABA_MEMORY_PRICE,
            ),
        ),
        invocation_fee=ALIBABA_INVOCATION_FEE,
        notes=(
            "Bills allocated CPU (0.05 vCPU steps) and memory (64 MB steps) over "
            "execution time; vCPU:memory ratio constrained between 1:1 and 1:4."
        ),
    )

    catalog[PlatformName.ORACLE_FUNCTIONS] = BillingModel(
        platform=PlatformName.ORACLE_FUNCTIONS.value,
        billable_time=BillableTime.EXECUTION,
        time_granularity_s=1 * MILLISECONDS,
        allocation_resources=(
            AllocationBilledResource(
                kind=ResourceKind.MEMORY,
                granularity=128 * MB,
                unit_price=ORACLE_MEMORY_PRICE,
            ),
        ),
        invocation_fee=ORACLE_INVOCATION_FEE,
        cpu_embedded_in_memory=True,
        notes="Bills allocated memory (fixed combos) over execution time; granularity not publicly documented.",
    )

    catalog[PlatformName.VERCEL_FUNCTIONS] = BillingModel(
        platform=PlatformName.VERCEL_FUNCTIONS.value,
        billable_time=BillableTime.EXECUTION,
        time_granularity_s=1 * MILLISECONDS,
        allocation_resources=(
            AllocationBilledResource(
                kind=ResourceKind.MEMORY,
                granularity=1 * MB,
                unit_price=VERCEL_MEMORY_PRICE,
            ),
        ),
        invocation_fee=VERCEL_INVOCATION_FEE,
        cpu_embedded_in_memory=True,
        notes="Bills allocated memory (1 MB steps) over execution time; CPU proportional.",
    )

    catalog[PlatformName.CLOUDFLARE_WORKERS] = BillingModel(
        platform=PlatformName.CLOUDFLARE_WORKERS.value,
        billable_time=BillableTime.CPU_TIME,
        time_granularity_s=1 * MILLISECONDS,
        usage_resources=(
            UsageBilledResource(
                kind=ResourceKind.CPU,
                granularity=1 * MILLISECONDS,
                unit_price=CLOUDFLARE_CPU_PRICE,
            ),
        ),
        invocation_fee=CLOUDFLARE_INVOCATION_FEE,
        notes=(
            "Bills consumed CPU time only (1 ms granularity) with a fixed 128 MB memory "
            "size; designed for short V8 isolate / Wasm tasks."
        ),
    )

    return catalog


#: The full Table 1 catalog, keyed by platform.
PLATFORM_BILLING_MODELS: Dict[PlatformName, BillingModel] = _build_catalog()


def get_billing_model(platform: "PlatformName | str") -> BillingModel:
    """Look up a platform's billing model by enum member or string name."""
    if isinstance(platform, str):
        platform = PlatformName(platform)
    return PLATFORM_BILLING_MODELS[platform]


def list_platforms() -> List[PlatformName]:
    """All platforms in the catalog, in Table 1 order."""
    return list(PLATFORM_BILLING_MODELS.keys())
