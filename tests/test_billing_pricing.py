"""Unit tests for pricing (Figure 1) and the §1 serverless-vs-VM comparison."""

import pytest

from repro.billing.catalog import PlatformName
from repro.billing.pricing import (
    CPU_TO_MEMORY_VALUE_RATIO,
    NON_SERVERLESS_PRICES,
    PLATFORM_PRICES,
    VCPU_EQUIVALENT_MEMORY_GB,
    aws_lambda_price_per_second,
    decompose_memory_embedded_price,
    figure1_series,
    price_comparison_vs_vm,
)


class TestPriceComparison:
    def test_ec2_fraction_matches_paper(self):
        """Paper §1: EC2 c6g.medium costs 41.1% of the equivalent Lambda price."""
        comparison = price_comparison_vs_vm()
        assert comparison["ec2_fraction_of_lambda"] == pytest.approx(0.411, abs=0.005)

    def test_fargate_fraction_matches_paper(self):
        """Paper §1: Fargate costs 47.8% of the equivalent Lambda price."""
        comparison = price_comparison_vs_vm()
        assert comparison["fargate_fraction_of_lambda"] == pytest.approx(0.478, abs=0.005)

    def test_lambda_arm_price(self):
        assert NON_SERVERLESS_PRICES["aws_lambda_arm"].price_per_second == pytest.approx(2.3034e-5)


class TestAwsLambdaPrice:
    def test_96ms_fee_equivalence_basis(self):
        """The 128 MB x86 price implies the 96 ms fee equivalence of §2.5."""
        per_second = aws_lambda_price_per_second(0.125)
        assert 2e-7 / per_second == pytest.approx(0.096, rel=0.01)

    def test_arm_discount(self):
        assert aws_lambda_price_per_second(1.0, arm=True) < aws_lambda_price_per_second(1.0)

    def test_invalid_memory(self):
        with pytest.raises(ValueError):
            aws_lambda_price_per_second(0.0)


class TestDecomposition:
    def test_embedded_price_split_sums_back(self):
        split = decompose_memory_embedded_price(1.6667e-5)
        memory_gb_per_vcpu = 1769.0 / 1024.0
        bundle = split["implied_memory_per_gb_second"] + split["implied_cpu_per_vcpu_second"] / memory_gb_per_vcpu
        assert bundle == pytest.approx(1.6667e-5, rel=1e-6)

    def test_ratio_preserved(self):
        split = decompose_memory_embedded_price(1.6667e-5)
        assert split["implied_cpu_per_vcpu_second"] / split["implied_memory_per_gb_second"] == pytest.approx(
            CPU_TO_MEMORY_VALUE_RATIO
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            decompose_memory_embedded_price(0.0)
        with pytest.raises(ValueError):
            decompose_memory_embedded_price(1e-5, ratio=0.0)


class TestFigure1:
    def test_all_platforms_in_series(self):
        rows = figure1_series()
        assert len(rows) == len(PLATFORM_PRICES)

    def test_per_unit_prices_similar_across_platforms(self):
        """I1: per-unit prices are broadly similar (within ~4x across platforms)."""
        rows = [r for r in figure1_series() if r["cpu_per_vcpu_second"] > 0]
        prices = [r["cpu_per_vcpu_second"] for r in rows]
        assert max(prices) / min(prices) < 4.0

    def test_ibm_cpu_memory_ratio_in_consensus_band(self):
        """§2.2: the vCPU:GB value ratio lies between 9 and 9.64 on decoupled platforms."""
        ibm = PLATFORM_PRICES[PlatformName.IBM_CODE_ENGINE]
        assert 9.0 <= ibm.cpu_per_vcpu_second / ibm.memory_per_gb_second <= 9.7

    def test_effective_price_1vcpu(self):
        """§2.2: one Lambda vCPU is 1,769 MB of memory, priced per GB-second."""
        aws = PLATFORM_PRICES[PlatformName.AWS_LAMBDA]
        price = aws.memory_per_gb_second * VCPU_EQUIVALENT_MEMORY_GB
        assert price == pytest.approx(2.8792e-5, rel=0.02)
