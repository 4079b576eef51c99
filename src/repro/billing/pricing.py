"""Per-unit resource prices (paper Figure 1) and the §1 serverless-vs-VM comparison.

The paper plots each platform's effective vCPU-second and GB-second prices and
observes (I1) that per-unit prices are broadly similar across providers and a
factor ~2-2.5x above VM / container-hosting prices for the same hardware.
:data:`PLATFORM_PRICES` is read off the Table 1 catalog
(:mod:`repro.billing.catalog`), the only place a unit price is written down.
For memory-based-billing platforms (AWS, Huawei, Azure Consumption and Flex,
Oracle, Vercel) the CPU cost is embedded in the memory price;
:meth:`PlatformPrice.implied_unit_prices` splits it using the
industry-consensus CPU:memory value ratio of ~9.1-9.64 the paper derives in
§2.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.billing.catalog import PlatformName, get_billing_model
from repro.billing.models import BillingModel
from repro.billing.units import ResourceKind

__all__ = [
    "PlatformPrice",
    "PLATFORM_PRICES",
    "NON_SERVERLESS_PRICES",
    "CPU_TO_MEMORY_VALUE_RATIO",
    "VCPU_EQUIVALENT_MEMORY_GB",
    "aws_lambda_price_per_second",
    "decompose_memory_embedded_price",
    "price_comparison_vs_vm",
]

#: Memory size AWS maps to one full vCPU (1,769 MB), used to convert
#: memory-embedded prices into per-vCPU equivalents.
VCPU_EQUIVALENT_MEMORY_GB: float = 1769.0 / 1024.0

#: Industry-consensus relative value of a vCPU-second versus a GB-second,
#: derived in §2.2 from GCP, AWS Fargate and IBM prices (range 9-9.64).
CPU_TO_MEMORY_VALUE_RATIO: float = 9.3


@dataclass(frozen=True)
class PlatformPrice:
    """Effective per-unit prices of one platform (Figure 1 data point).

    ``cpu_per_vcpu_second`` is zero for platforms that embed CPU in the memory
    price; :meth:`implied_unit_prices` splits it.
    """

    platform: PlatformName
    cpu_per_vcpu_second: float
    memory_per_gb_second: float
    invocation_fee: float
    memory_based_billing: bool

    def implied_unit_prices(self) -> Tuple[float, float]:
        """The (vCPU-second, GB-second) prices, splitting a memory-embedded one."""
        if self.memory_based_billing:
            implied = decompose_memory_embedded_price(self.memory_per_gb_second)
            return implied["implied_cpu_per_vcpu_second"], implied["implied_memory_per_gb_second"]
        return self.cpu_per_vcpu_second, self.memory_per_gb_second


def _unit_price(model: BillingModel, kind: ResourceKind) -> float:
    """The first ``kind`` unit price, allocation before usage resources (0 if unbilled)."""
    resources = (*model.allocation_resources, *model.usage_resources)
    return next((r.unit_price for r in resources if r.kind is kind), 0.0)


#: Figure 1's price table, read off the Table 1 catalog in its order.  A
#: platform is memory-based when it bills no CPU resource at all.
PLATFORM_PRICES: Dict[PlatformName, PlatformPrice] = {
    platform: PlatformPrice(
        platform,
        _unit_price(model, ResourceKind.CPU),
        _unit_price(model, ResourceKind.MEMORY),
        model.invocation_fee,
        all(r.kind is not ResourceKind.CPU
            for r in (*model.allocation_resources, *model.usage_resources)),
    )
    for platform, model in ((platform, get_billing_model(platform)) for platform in PlatformName)
}


@dataclass(frozen=True)
class NonServerlessPrice:
    """Per-second price of a non-serverless compute option (§1 comparison)."""

    name: str
    price_per_second: float
    vcpus: float
    memory_gb: float
    description: str


#: The §1 price comparison baselines: ARM hardware in us-east-2 (2025-05-15).
NON_SERVERLESS_PRICES: Dict[str, NonServerlessPrice] = {
    "aws_lambda_arm": NonServerlessPrice(
        name="aws_lambda_arm",
        price_per_second=2.3034e-5,
        vcpus=1.0,
        memory_gb=1769.0 / 1024.0,
        description="AWS Lambda, 1 vCPU / 1,769 MB / 512 MB ephemeral storage (ARM)",
    ),
    "ec2_c6g_medium": NonServerlessPrice(
        name="ec2_c6g_medium",
        price_per_second=9.4753e-6,
        vcpus=1.0,
        memory_gb=2.0,
        description="AWS EC2 c6g.medium, 1 vCPU / 2 GB / 1 GB storage (ARM)",
    ),
    "fargate_container": NonServerlessPrice(
        name="fargate_container",
        price_per_second=1.1003e-5,
        vcpus=1.0,
        memory_gb=2.0,
        description="AWS Fargate container with the same allocation as the EC2 instance (ARM)",
    ),
}


def aws_lambda_price_per_second(memory_gb: float, arm: bool = False) -> float:
    """Per-second price of an AWS Lambda function with the given memory size.

    The x86 GB-second price is used by default; the ARM price is roughly 20%
    lower (the paper's §1 figure uses ARM for the cross-service comparison).
    """
    if memory_gb <= 0:
        raise ValueError("memory_gb must be positive")
    price = PLATFORM_PRICES[PlatformName.AWS_LAMBDA].memory_per_gb_second * (0.8 if arm else 1.0)
    return memory_gb * price


def decompose_memory_embedded_price(
    memory_per_gb_second: float,
    ratio: float = CPU_TO_MEMORY_VALUE_RATIO,
    vcpu_equivalent_memory_gb: float = VCPU_EQUIVALENT_MEMORY_GB,
) -> Dict[str, float]:
    """Split a memory-embedded price into implied CPU and memory unit prices.

    Memory-based-billing platforms charge ``memory_per_gb_second`` for a bundle
    of 1 GB of memory plus ``1/vcpu_equivalent_memory_gb`` vCPUs.  Using the
    consensus value ratio ``r`` (vCPU-second worth ``r`` GB-seconds), solve::

        bundle = mem_price + (1 / M) * cpu_price,  cpu_price = r * mem_price

    Returns a dict with ``implied_cpu_per_vcpu_second`` and
    ``implied_memory_per_gb_second``.
    """
    if memory_per_gb_second <= 0:
        raise ValueError("memory_per_gb_second must be positive")
    if ratio <= 0 or vcpu_equivalent_memory_gb <= 0:
        raise ValueError("ratio and vcpu_equivalent_memory_gb must be positive")
    memory_price = memory_per_gb_second / (1.0 + ratio / vcpu_equivalent_memory_gb)
    cpu_price = ratio * memory_price
    return {
        "implied_cpu_per_vcpu_second": cpu_price,
        "implied_memory_per_gb_second": memory_price,
    }


def price_comparison_vs_vm() -> Dict[str, float]:
    """The §1 comparison: EC2 and Fargate prices as fractions of the Lambda price.

    The paper reports 41.1% (EC2 c6g.medium) and 47.8% (Fargate) of the AWS
    Lambda per-second price for the same ARM hardware.
    """
    lambda_price = NON_SERVERLESS_PRICES["aws_lambda_arm"].price_per_second
    return {
        "aws_lambda_arm_per_second": lambda_price,
        "ec2_fraction_of_lambda": NON_SERVERLESS_PRICES["ec2_c6g_medium"].price_per_second / lambda_price,
        "fargate_fraction_of_lambda": NON_SERVERLESS_PRICES["fargate_container"].price_per_second
        / lambda_price,
    }


def figure1_series() -> List[Dict[str, float]]:
    """The (cpu price, memory price) points of Figure 1, one row per platform."""
    rows: List[Dict[str, float]] = []
    for platform, price in PLATFORM_PRICES.items():
        cpu_price, memory_price = price.implied_unit_prices()
        rows.append(
            {
                "platform": platform.value,
                "cpu_per_vcpu_second": cpu_price,
                "memory_per_gb_second": memory_price,
                "memory_based_billing": float(price.memory_based_billing),
                "invocation_fee": price.invocation_fee,
            }
        )
    return rows
