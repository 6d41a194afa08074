"""Declarative description of a figure-style sweep grid.

A :class:`SweepSpec` names the axes of the paper's evaluation grid --
models x strategy spaces x topologies x scaling modes x batch sizes x
array sizes -- and expands to the cartesian product of
:class:`SweepPoint` records in a deterministic order (axes nested in the
field order above, models outermost).  Specs round-trip through JSON
(``hypar sweep my_spec.json``) and a few named presets cover the common
grids (``hypar sweep fig6``).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from typing import Mapping

from repro.core.costmodel import ANALYTIC_SPEC, canonical_cost_model
from repro.core.hierarchical import DEFAULT_BATCH_SIZE
from repro.core.parallelism import StrategySpace
from repro.core.tensors import ScalingMode
from repro.sim.backend import DEFAULT_SIM_ENGINE, validate_sim_engine

#: Topology names the runner can instantiate (see ``runner.TOPOLOGIES``).
TOPOLOGY_NAMES = ("htree", "torus")

#: The paper's ten evaluation networks, in figure order.
PAPER_MODELS = (
    "SFC",
    "SCONV",
    "Lenet-c",
    "Cifar-c",
    "AlexNet",
    "VGG-A",
    "VGG-B",
    "VGG-C",
    "VGG-D",
    "VGG-E",
)


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One configuration of the grid: a single search-plus-simulate job."""

    index: int
    model: str
    batch_size: int
    num_accelerators: int
    topology: str
    scaling_mode: str
    strategies: str
    cost_model: str = ANALYTIC_SPEC
    sim_engine: str = DEFAULT_SIM_ENGINE

    def label(self) -> str:
        """Compact human-readable point id used in logs and artifacts."""
        base = (
            f"{self.model}/b{self.batch_size}/n{self.num_accelerators}"
            f"/{self.topology}/{self.scaling_mode}/{self.strategies}"
        )
        # The analytic defaults stay label-identical to the historical
        # format; only calibrated/network points grow the extra segments.
        if self.cost_model != ANALYTIC_SPEC:
            base = f"{base}/{self.cost_model}"
        if self.sim_engine != DEFAULT_SIM_ENGINE:
            base = f"{base}/{self.sim_engine}"
        return base

    @classmethod
    def single(
        cls,
        model: str,
        batch_size: int = DEFAULT_BATCH_SIZE,
        num_accelerators: int = 16,
        topology: str = "htree",
        scaling_mode: "ScalingMode | str" = ScalingMode.PARALLELISM_AWARE,
        strategies: "StrategySpace | str | None" = None,
        cost_model: str = ANALYTIC_SPEC,
        sim_engine: str = DEFAULT_SIM_ENGINE,
    ) -> "SweepPoint":
        """One standalone, fully validated and canonicalized grid point.

        The reusable entry for callers that want exactly one
        search-plus-simulate job -- the service's ``/simulate`` endpoint,
        scripts -- with the same axis validation and canonical spellings a
        one-point :class:`SweepSpec` would produce (``ValueError`` on bad
        axes, like the spec).
        """
        spec = SweepSpec(
            name="point",
            models=(model,),
            batch_sizes=(batch_size,),
            array_sizes=(num_accelerators,),
            topologies=(topology,),
            scaling_modes=(ScalingMode.parse(scaling_mode).value,),
            strategy_spaces=(StrategySpace.parse(strategies).describe(),),
            cost_models=(canonical_cost_model(cost_model),),
            sim_engines=(validate_sim_engine(sim_engine),),
        )
        return spec.points()[0]


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """The grid: every combination of the axes is one :class:`SweepPoint`.

    ``array_sizes`` entries must be powers of two; size ``1`` is allowed
    and simulates the single-accelerator baseline (no topology, no
    assignment), as in the scalability study.
    """

    name: str
    models: tuple[str, ...]
    batch_sizes: tuple[int, ...] = (DEFAULT_BATCH_SIZE,)
    array_sizes: tuple[int, ...] = (16,)
    topologies: tuple[str, ...] = ("htree",)
    scaling_modes: tuple[str, ...] = (ScalingMode.PARALLELISM_AWARE.value,)
    strategy_spaces: tuple[str, ...] = ("dp,mp",)
    cost_models: tuple[str, ...] = (ANALYTIC_SPEC,)
    sim_engines: tuple[str, ...] = (DEFAULT_SIM_ENGINE,)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a sweep spec needs a name")
        for axis in (
            "models",
            "batch_sizes",
            "array_sizes",
            "topologies",
            "scaling_modes",
            "strategy_spaces",
            "cost_models",
            "sim_engines",
        ):
            values = getattr(self, axis)
            object.__setattr__(self, axis, tuple(values))
            if not getattr(self, axis):
                raise ValueError(f"sweep axis {axis!r} must not be empty")
        for batch in self.batch_sizes:
            if batch <= 0:
                raise ValueError(f"batch sizes must be positive, got {batch}")
        for size in self.array_sizes:
            if size < 1 or size & (size - 1):
                raise ValueError(
                    f"array sizes must be powers of two >= 1, got {size}"
                )
        for topology in self.topologies:
            if topology not in TOPOLOGY_NAMES:
                raise ValueError(
                    f"unknown topology {topology!r}; known: {', '.join(TOPOLOGY_NAMES)}"
                )
        for mode in self.scaling_modes:
            ScalingMode.parse(mode)  # raises on unknown modes
        for space in self.strategy_spaces:
            StrategySpace.parse(space)  # raises on unknown strategies
        object.__setattr__(
            self,
            "cost_models",
            tuple(canonical_cost_model(spec) for spec in self.cost_models),
        )
        object.__setattr__(
            self,
            "sim_engines",
            tuple(validate_sim_engine(engine) for engine in self.sim_engines),
        )

    # ------------------------------------------------------------------
    # Expansion.
    # ------------------------------------------------------------------

    @property
    def num_points(self) -> int:
        return (
            len(self.models)
            * len(self.batch_sizes)
            * len(self.array_sizes)
            * len(self.topologies)
            * len(self.scaling_modes)
            * len(self.strategy_spaces)
            * len(self.cost_models)
            * len(self.sim_engines)
        )

    def points(self) -> tuple[SweepPoint, ...]:
        """The grid in deterministic order (models outermost)."""
        return tuple(
            SweepPoint(
                index=index,
                model=model,
                batch_size=batch_size,
                num_accelerators=num_accelerators,
                topology=topology,
                scaling_mode=ScalingMode.parse(scaling_mode).value,
                strategies=StrategySpace.parse(strategies).describe(),
                cost_model=cost_model,
                sim_engine=sim_engine,
            )
            for index, (
                model,
                batch_size,
                num_accelerators,
                topology,
                scaling_mode,
                strategies,
                cost_model,
                sim_engine,
            ) in enumerate(
                itertools.product(
                    self.models,
                    self.batch_sizes,
                    self.array_sizes,
                    self.topologies,
                    self.scaling_modes,
                    self.strategy_spaces,
                    self.cost_models,
                    self.sim_engines,
                )
            )
        )

    # ------------------------------------------------------------------
    # JSON round trip.
    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "models": list(self.models),
            "batch_sizes": list(self.batch_sizes),
            "array_sizes": list(self.array_sizes),
            "topologies": list(self.topologies),
            "scaling_modes": list(self.scaling_modes),
            "strategy_spaces": list(self.strategy_spaces),
            "cost_models": list(self.cost_models),
            "sim_engines": list(self.sim_engines),
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "SweepSpec":
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown sweep spec keys: {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
        if "name" not in payload or "models" not in payload:
            raise ValueError("a sweep spec requires at least 'name' and 'models'")
        kwargs = {key: payload[key] for key in payload}
        if not isinstance(kwargs["name"], str):
            raise ValueError(f"sweep spec 'name' must be a string, got {kwargs['name']!r}")
        for axis in (
            "models",
            "batch_sizes",
            "array_sizes",
            "topologies",
            "scaling_modes",
            "strategy_spaces",
            "cost_models",
            "sim_engines",
        ):
            if axis not in kwargs:
                continue
            values = kwargs[axis]
            if not isinstance(values, list):
                # tuple("VGG-A") would silently explode into letters.
                raise ValueError(f"sweep spec axis {axis!r} must be a list, got {values!r}")
            kind = int if axis in ("batch_sizes", "array_sizes") else str
            for value in values:
                # ``type`` rather than ``isinstance``: true is an int too.
                if type(value) is not kind:
                    raise ValueError(
                        f"sweep spec axis {axis!r} must hold {kind.__name__} "
                        f"values, got {value!r}"
                    )
            kwargs[axis] = tuple(values)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "SweepSpec":
        with open(path) as handle:
            return cls.from_json(json.load(handle))

    def describe(self) -> str:
        return (
            f"{self.name}: {self.num_points} points "
            f"({len(self.models)} models x {len(self.batch_sizes)} batches x "
            f"{len(self.array_sizes)} array sizes x {len(self.topologies)} "
            f"topologies x {len(self.scaling_modes)} scaling modes x "
            f"{len(self.strategy_spaces)} strategy spaces x "
            f"{len(self.cost_models)} cost models x "
            f"{len(self.sim_engines)} sim engines)"
        )


#: Named grids runnable as ``hypar sweep <preset>``.
PRESETS: dict[str, SweepSpec] = {
    # The Figures 6-8 grid: the paper's ten networks on the preferred
    # platform (sixteen accelerators, H tree, batch 256).
    "fig6": SweepSpec(name="fig6", models=PAPER_MODELS),
    # The Figure 12 grid: the same networks on both interconnects.
    "fig12": SweepSpec(
        name="fig12", models=PAPER_MODELS, topologies=("htree", "torus")
    ),
    # The batch-size axis of the sensitivity study on VGG-A.
    "batch": SweepSpec(
        name="batch",
        models=("VGG-A",),
        batch_sizes=(32, 64, 128, 256, 512, 1024, 2048, 4096),
    ),
    # A two-model, two-batch grid small enough for CI smoke runs.
    "smoke": SweepSpec(
        name="smoke",
        models=("Lenet-c", "Cifar-c"),
        batch_sizes=(64, 256),
        array_sizes=(8,),
    ),
}


def load_spec(name_or_path: str) -> SweepSpec:
    """Resolve a preset name or a JSON spec file path."""
    if name_or_path in PRESETS:
        return PRESETS[name_or_path]
    if name_or_path.endswith(".json"):
        return SweepSpec.from_file(name_or_path)
    raise ValueError(
        f"unknown sweep preset {name_or_path!r} (and not a .json path); "
        f"presets: {', '.join(sorted(PRESETS))}"
    )
