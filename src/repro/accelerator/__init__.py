"""HMC-based accelerator substrate: compute, memory and energy models.

The paper's evaluation platform is an array of sixteen accelerators, each
built on a Hybrid Memory Cube with an Eyeriss-like row-stationary
processing unit on the logic die.  This package models the pieces the
event-driven simulation needs:

* :class:`~repro.accelerator.hmc.HMCConfig` -- stacked-DRAM bandwidth and capacity,
* :class:`~repro.accelerator.pe_array.RowStationaryPU` -- PE-array throughput,
* :class:`~repro.accelerator.energy.EnergyModel` -- per-operation energy costs,
* :class:`~repro.accelerator.accelerator.Accelerator` -- one cube + PU,
* :class:`~repro.accelerator.array.ArrayConfig` -- the whole array.
"""

from repro._exports import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "Accelerator": "accelerator",
    "LayerExecution": "accelerator",
    "ArrayConfig": "array",
    "PAPER_ARRAY": "array",
    "DEFAULT_NUM_ACCELERATORS": "array",
    "LINK_BANDWIDTH_BITS": "array",
    "TOTAL_NETWORK_BANDWIDTH_BITS": "array",
    "EnergyModel": "energy",
    "PAPER_ENERGY_MODEL": "energy",
    "ADD_ENERGY_PJ": "energy",
    "MULT_ENERGY_PJ": "energy",
    "SRAM_ACCESS_PJ": "energy",
    "DRAM_ACCESS_PJ": "energy",
    "HMCConfig": "hmc",
    "HMC_CAPACITY": "hmc",
    "HMC_INTERNAL_BANDWIDTH": "hmc",
    "RowStationaryPU": "pe_array",
    "PU_GOPS": "pe_array",
    "PU_BUFFER_BYTES": "pe_array",
    "PU_CLOCK_HZ": "pe_array",
    "PE_ROWS": "pe_array",
    "PE_COLS": "pe_array",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
