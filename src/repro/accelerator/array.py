"""Configuration of the accelerator array used by the HyPar architecture.

The paper's evaluation platform is a 2-D array of sixteen HMC-based
accelerators organised in four hierarchy levels and connected by either an
H-tree (the preferred topology) or a torus (Section 5, Figure 4).  The
array object ties together the per-accelerator models, the interconnect
parameters and the hierarchy depth, and is consumed by the training-step
simulator.
"""

from __future__ import annotations

import dataclasses
import math

from repro.accelerator.accelerator import Accelerator
from repro.accelerator.energy import EnergyModel
from repro.accelerator.hmc import HMCConfig
from repro.accelerator.pe_array import RowStationaryPU

#: Per-link bandwidth quoted by the paper: 1600 Mb/s.
LINK_BANDWIDTH_BITS = 1600e6
#: Aggregate network bandwidth quoted by the paper: 25.6 Gb/s (16 links).
TOTAL_NETWORK_BANDWIDTH_BITS = 25.6e9
#: The paper's array size.
DEFAULT_NUM_ACCELERATORS = 16


@dataclasses.dataclass(frozen=True)
class ArrayConfig:
    """An array of ``num_accelerators`` HMC-based accelerators.

    Attributes
    ----------
    num_accelerators:
        Number of accelerators; must be a power of two because the
        hierarchical partition halves the array recursively.
    link_bandwidth_bits:
        Bandwidth of one inter-accelerator link, in bits per second.
    pus_per_accelerator:
        Processing units per HMC logic die (see
        :class:`~repro.accelerator.accelerator.Accelerator`).
    hmc, pu, energy_model:
        Shared per-accelerator component models.
    """

    num_accelerators: int = DEFAULT_NUM_ACCELERATORS
    link_bandwidth_bits: float = LINK_BANDWIDTH_BITS
    pus_per_accelerator: int = 4
    hmc: HMCConfig = dataclasses.field(default_factory=HMCConfig)
    pu: RowStationaryPU = dataclasses.field(default_factory=RowStationaryPU)
    energy_model: EnergyModel = dataclasses.field(default_factory=EnergyModel)

    def __post_init__(self) -> None:
        if self.num_accelerators <= 0:
            raise ValueError("num_accelerators must be positive")
        if self.num_accelerators & (self.num_accelerators - 1):
            raise ValueError(
                f"num_accelerators must be a power of two, got {self.num_accelerators}"
            )
        if self.link_bandwidth_bits <= 0:
            raise ValueError("link_bandwidth_bits must be positive")
        if self.pus_per_accelerator <= 0:
            raise ValueError("pus_per_accelerator must be positive")

    @property
    def num_levels(self) -> int:
        """Number of hierarchy levels (``log2`` of the array size)."""
        return int(math.log2(self.num_accelerators))

    @property
    def link_bandwidth_bytes(self) -> float:
        """Per-link bandwidth in bytes per second."""
        return self.link_bandwidth_bits / 8.0

    @property
    def total_network_bandwidth_bits(self) -> float:
        """Aggregate bandwidth across every link of the array (bits/s)."""
        return self.link_bandwidth_bits * self.num_accelerators

    @property
    def total_compute_macs_per_second(self) -> float:
        """Aggregate peak MAC throughput of the whole array."""
        return (
            self.pu.peak_macs_per_second
            * self.pus_per_accelerator
            * self.num_accelerators
        )

    def accelerators(self) -> list[Accelerator]:
        """Instantiate the individual accelerator objects of the array."""
        return [
            Accelerator(
                index=index,
                hmc=self.hmc,
                pu=self.pu,
                num_pus=self.pus_per_accelerator,
                energy_model=self.energy_model,
            )
            for index in range(self.num_accelerators)
        ]


#: The paper's evaluation platform: sixteen accelerators, 1600 Mb/s links.
PAPER_ARRAY = ArrayConfig()
