"""Tests for the accelerator-array configuration."""

import pytest

from repro.accelerator.array import (
    LINK_BANDWIDTH_BITS,
    PAPER_ARRAY,
    TOTAL_NETWORK_BANDWIDTH_BITS,
    ArrayConfig,
)


class TestPaperConfiguration:
    def test_sixteen_accelerators_four_levels(self):
        assert PAPER_ARRAY.num_accelerators == 16
        assert PAPER_ARRAY.num_levels == 4

    def test_link_bandwidth_is_1600_mbps(self):
        assert LINK_BANDWIDTH_BITS == pytest.approx(1600e6)
        assert PAPER_ARRAY.link_bandwidth_bytes == pytest.approx(200e6)

    def test_total_network_bandwidth_is_25_6_gbps(self):
        assert TOTAL_NETWORK_BANDWIDTH_BITS == pytest.approx(25.6e9)
        assert PAPER_ARRAY.total_network_bandwidth_bits == pytest.approx(25.6e9)


class TestDerivedQuantities:
    @pytest.mark.parametrize("count,levels", [(2, 1), (4, 2), (8, 3), (16, 4), (64, 6)])
    def test_num_levels(self, count, levels):
        assert ArrayConfig(num_accelerators=count).num_levels == levels

    def test_single_accelerator_has_zero_levels(self):
        assert ArrayConfig(num_accelerators=1).num_levels == 0

    def test_total_compute_scales_with_array_size_and_pus(self):
        small = ArrayConfig(num_accelerators=4, pus_per_accelerator=1)
        large = ArrayConfig(num_accelerators=16, pus_per_accelerator=2)
        assert large.total_compute_macs_per_second == pytest.approx(
            8 * small.total_compute_macs_per_second
        )

    def test_accelerators_instantiated_with_indices(self):
        array = ArrayConfig(num_accelerators=4)
        accelerators = array.accelerators()
        assert [a.index for a in accelerators] == [0, 1, 2, 3]
        assert all(a.num_pus == array.pus_per_accelerator for a in accelerators)


class TestValidation:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            ArrayConfig(num_accelerators=12)

    def test_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            ArrayConfig(num_accelerators=0)

    def test_rejects_non_positive_bandwidth(self):
        with pytest.raises(ValueError):
            ArrayConfig(link_bandwidth_bits=0)

    def test_rejects_non_positive_pu_count(self):
        with pytest.raises(ValueError):
            ArrayConfig(pus_per_accelerator=0)
