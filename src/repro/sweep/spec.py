"""The platform every name-level surface shares, and the sweep grid.

:class:`PlanConfig` owns each platform field's default and the one
canonicalizer of its spellings; the service schemas, the sweep grid, the
replanner and the CLI take theirs from it.

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
import functools
import itertools
import math
import threading
from typing import Callable, Mapping

from repro.accelerator.array import DEFAULT_NUM_ACCELERATORS, ArrayConfig
from repro.core.costmodel import ANALYTIC_SPEC, canonical_cost_model, resolve_cost_model
from repro.core.hierarchical import DEFAULT_BATCH_SIZE
from repro.core.parallelism import StrategySpace
from repro.core.tensors import ScalingMode
from repro.nn.model_zoo import canonical_model_name
from repro.sim.backend import DEFAULT_SIM_ENGINE, validate_sim_engine

#: Topology names the runner can instantiate (see
#: :func:`repro.interconnect.build_topology`).
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


def memoized(canonicalize):
    """``canonicalize`` behind a memo of the spellings clients send.

    The memo (the wrapper's ``memo`` attribute) is bounded in both
    directions: at most 256 spellings (it empties when full), and only
    strings of at most 64 characters (longer, padded ones and non-string
    values are canonicalized afresh).  A spelling that raises is never
    memoized.
    """
    memo: dict[str, object] = {}
    # Service threads share the memo; only a miss takes the lock.
    lock = threading.Lock()

    @functools.wraps(canonicalize)
    def canonical(value):
        try:
            return memo[value]
        except (KeyError, TypeError):  # not memoized, or not hashable
            pass
        result = canonicalize(value)
        if isinstance(value, str) and len(value) <= 64:
            with lock:
                if len(memo) >= 256:
                    memo.clear()
                memo[value] = result
        return result

    canonical.memo = memo
    return canonical


def _batch_size(batch: int) -> int:
    if batch <= 0:
        raise ValueError(f"batch_size must be positive, got {batch}")
    return batch


def _num_accelerators(count: int) -> int:
    if count <= 0:
        raise ValueError(f"num_accelerators must be positive, got {count}")
    if count & (count - 1):
        raise ValueError(f"num_accelerators must be a power of two, got {count}")
    return count


@memoized
def _topology(name: str) -> str:
    canonical = name.strip().lower()
    if canonical not in TOPOLOGY_NAMES:
        raise ValueError(
            f"unknown topology {name!r}; known: {', '.join(TOPOLOGY_NAMES)}"
        )
    return canonical


@memoized
def _scaling_mode(mode: ScalingMode | str) -> str:
    return ScalingMode.parse(mode).value


@memoized
def _strategies(space: StrategySpace | str | None) -> str:
    return StrategySpace.parse(space).describe()


@memoized
def _sim_engine(name: str | None) -> str:
    return validate_sim_engine(None if name is None else name.strip().lower())


#: Each platform field's one canonicalizer, in :class:`PlanConfig` order.
_CANONICAL: dict[str, Callable] = {
    "batch_size": _batch_size,
    "num_accelerators": _num_accelerators,
    "topology": _topology,
    "scaling_mode": _scaling_mode,
    "strategies": _strategies,
    "cost_model": memoized(canonical_cost_model),
    "sim_engine": _sim_engine,
}

#: The platform fields, in the order sweep rows and payloads list them.
PLAN_FIELDS = tuple(_CANONICAL)


def canonicalize_plan(config, fields: tuple[str, ...] = PLAN_FIELDS) -> None:
    """Canonicalize the platform ``fields`` of the frozen ``config`` in place
    (a field still holding its default is canonical); ``ValueError`` names
    the bad field."""
    for name in fields:
        value = getattr(config, name)
        default, canonicalize = _RULES[name]
        if value is not default:
            canonical = canonicalize(value)
            if canonical != value:
                object.__setattr__(config, name, canonical)


@dataclasses.dataclass(frozen=True)
class PlanConfig:
    """The platform one plan is searched and simulated on: ``2**H``
    accelerators on one interconnect at one batch size, with one strategy
    space, scaling rule, cost model and engine.  Construction stores the
    canonical spelling of each field; ``ValueError`` rejects the rest."""

    batch_size: int = DEFAULT_BATCH_SIZE
    num_accelerators: int = DEFAULT_NUM_ACCELERATORS
    topology: str = "htree"
    scaling_mode: str = ScalingMode.PARALLELISM_AWARE.value
    strategies: str = "dp,mp"
    cost_model: str = ANALYTIC_SPEC
    sim_engine: str = DEFAULT_SIM_ENGINE

    def __post_init__(self) -> None:
        canonicalize_plan(self)

    @staticmethod
    def canonical(field: str, value):
        """``value`` in the canonical spelling of platform ``field``."""
        return _CANONICAL[field](value)

    def simulator(self):
        """The process's one :class:`~repro.sim.training.TrainingSimulator`
        for this platform (see :func:`repro.sweep.cache.cached_simulator`)."""
        from repro.sweep.cache import cached_simulator

        return cached_simulator(
            ArrayConfig(num_accelerators=self.num_accelerators),
            self.topology,
            scaling_mode=self.scaling_mode,
            strategies=self.strategies,
            communication_model=resolve_cost_model(self.cost_model).communication_model(),
            sim_engine=self.sim_engine,
        )


#: Each platform field's default (the object construction fills in) and
#: its canonicalizer.
_RULES = {name: (getattr(PlanConfig, name), _CANONICAL[name]) for name in PLAN_FIELDS}


@dataclasses.dataclass(frozen=True)
class SweepPoint(PlanConfig):
    """One configuration of the grid: a platform plus a model, one
    search-plus-simulate job."""

    model: str = dataclasses.field(kw_only=True)
    index: int = dataclasses.field(default=0, kw_only=True)

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
    def single(cls, model: str, **plan) -> "SweepPoint":
        """One standalone grid point (index 0) for ``model`` on the
        :class:`PlanConfig` fields ``plan``."""
        return cls(model=model, **plan)


#: Each grid axis and the platform field its values set (``models`` sets
#: none), in expansion order: models outermost, engines innermost.
AXES = (
    ("models", None),
    ("batch_sizes", "batch_size"),
    ("array_sizes", "num_accelerators"),
    ("topologies", "topology"),
    ("scaling_modes", "scaling_mode"),
    ("strategy_spaces", "strategies"),
    ("cost_models", "cost_model"),
    ("sim_engines", "sim_engine"),
)


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """The grid: every combination of the axes is one :class:`SweepPoint`.

    ``array_sizes`` entries must be powers of two; size ``1`` is allowed
    and simulates the single-accelerator baseline (no topology, no
    assignment), as in the scalability study.  Every axis value is checked
    with :class:`PlanConfig`'s canonicalizers.  The spec keeps the
    caller's spellings (its points are canonical), except on the
    cost-model and engine axes, which it stores canonical.
    """

    name: str
    models: tuple[str, ...]
    batch_sizes: tuple[int, ...] = (PlanConfig.batch_size,)
    array_sizes: tuple[int, ...] = (PlanConfig.num_accelerators,)
    topologies: tuple[str, ...] = (PlanConfig.topology,)
    scaling_modes: tuple[str, ...] = (PlanConfig.scaling_mode,)
    strategy_spaces: tuple[str, ...] = (PlanConfig.strategies,)
    cost_models: tuple[str, ...] = (PlanConfig.cost_model,)
    sim_engines: tuple[str, ...] = (PlanConfig.sim_engine,)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a sweep spec needs a name")
        for axis, field in AXES:
            values = tuple(getattr(self, axis))
            if not values:
                raise ValueError(f"sweep axis {axis!r} must not be empty")
            if field is None:
                for value in values:
                    try:
                        canonical_model_name(value)
                    except KeyError as error:
                        raise ValueError(f"sweep axis {axis!r}: {error.args[0]}") from None
            else:
                try:
                    canonical = tuple(_CANONICAL[field](value) for value in values)
                except ValueError as error:
                    raise ValueError(f"sweep axis {axis!r}: {error}") from None
                if axis in ("cost_models", "sim_engines"):
                    values = canonical
            object.__setattr__(self, axis, values)

    # ------------------------------------------------------------------
    # Expansion.
    # ------------------------------------------------------------------

    @property
    def num_points(self) -> int:
        return math.prod(len(getattr(self, axis)) for axis, _ in AXES)

    def points(self) -> tuple[SweepPoint, ...]:
        """The grid in deterministic order (models outermost)."""
        fields = tuple(field for _, field in AXES[1:])
        return tuple(
            SweepPoint(index=index, model=model, **dict(zip(fields, plan)))
            for index, (model, *plan) in enumerate(
                itertools.product(*(getattr(self, axis) for axis, _ in AXES))
            )
        )

    # ------------------------------------------------------------------
    # JSON round trip.
    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            **{axis: list(getattr(self, axis)) for axis, _ in AXES},
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
        for axis, field in AXES:
            if axis not in kwargs:
                continue
            values = kwargs[axis]
            if not isinstance(values, list):
                # tuple("VGG-A") would silently explode into letters.
                raise ValueError(f"sweep spec axis {axis!r} must be a list, got {values!r}")
            kind = int if field in ("batch_size", "num_accelerators") else str
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
        import json  # every command imports this module; few read a spec file

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
