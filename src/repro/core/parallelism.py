"""Parallelism types, strategy spaces and per-layer assignments.

Terminology follows Section 3 of the paper:

* lowercase *data parallelism* (``dp``) / *model parallelism* (``mp``) refer
  to the choice for one specific layer at one hierarchy level;
* uppercase *Data Parallelism* / *Model Parallelism* refer to the degenerate
  whole-network assignments where every layer at every level uses the same
  choice.

Beyond the paper's binary dp/mp axis the reproduction supports an
extensible per-layer **strategy space**: a :class:`StrategySpace` is an
ordered subset of :class:`Parallelism` members, candidate assignments are
encoded as base-``K`` digit patterns over that space
(:meth:`LayerAssignment.from_codes` / :meth:`LayerAssignment.to_codes`),
and every search, sweep and cost table is parameterized by the space.  The
default space is the paper's ``(dp, mp)``, for which the base-2 digit
encoding is the bit encoding of Figures 9 and 10.  The first strategy
beyond the paper is per-layer *pipeline* parallelism
(``Parallelism.PIPELINE``); the per-strategy cost contributions live in
:mod:`repro.core.strategies`.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterable, Iterator, Sequence


class Parallelism(enum.Enum):
    """Per-layer parallelism choice.

    ``DATA``
        The layer's feature maps and errors are partitioned along the batch
        dimension; every accelerator (group) holds a full copy of the
        layer's kernel.  Intra-layer communication happens when gradients
        are reduced for the weight update.

    ``MODEL``
        The layer's kernel is partitioned along the output-channel (or
        output-neuron) dimension; every accelerator sees the full batch.
        Intra-layer communication happens when output-feature-map partial
        sums are reduced in the forward pass.

    ``PIPELINE``
        The layer is *stage-local*: one group of the pair holds the whole
        layer (full kernel, full batch) and executes it for micro-batches
        streamed across the stage boundary.  There is no intra-layer
        reduction; all communication happens at the stage boundaries
        (activations forward, errors backward).  Consecutive pipeline
        layers alternate owner groups, so they form adjacent pipeline
        stages.  This strategy is *not* part of the paper; it is only
        explored when a strategy space containing it is requested.
    """

    DATA = "dp"
    MODEL = "mp"
    PIPELINE = "pp"

    @property
    def short(self) -> str:
        """Two-letter abbreviation used in the figures (``dp``/``mp``/``pp``)."""
        return self.value

    @classmethod
    def parse(cls, text: str) -> "Parallelism":
        """Parse ``"dp"``/``"mp"``/``"pp"`` (or long names, any case)."""
        normalized = text.strip().lower()
        if normalized in ("dp", "data", "data_parallelism", "0"):
            return cls.DATA
        if normalized in ("mp", "model", "model_parallelism", "1"):
            return cls.MODEL
        if normalized in ("pp", "pipe", "pipeline", "pipeline_parallelism", "2"):
            return cls.PIPELINE
        raise ValueError(f"cannot parse parallelism from {text!r}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


DATA = Parallelism.DATA
MODEL = Parallelism.MODEL
PIPELINE = Parallelism.PIPELINE


@dataclasses.dataclass(frozen=True)
class StrategySpace:
    """An ordered set of per-layer strategies forming one candidate axis.

    The order defines the base-``K`` digit encoding of candidate
    assignments: digit value ``c`` stands for ``members[c]``.  It also
    defines tie-breaking -- searches resolve cost ties to the *lowest*
    digit, so putting ``dp`` first preserves the paper's "ties favour data
    parallelism" rule.  The default space is the paper's binary
    ``(dp, mp)``; pipeline parallelism joins only when explicitly
    requested (e.g. ``StrategySpace.parse("dp,mp,pp")``).
    """

    members: tuple[Parallelism, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a strategy space needs at least one member")
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"duplicate strategies in space: {self.members}")

    @classmethod
    def parse(cls, value: "StrategySpace | Sequence[Parallelism | str] | str | None") -> "StrategySpace":
        """Parse a space from ``"dp,mp,pp"``, a member sequence, or ``None``.

        ``None`` yields the default binary dp/mp space.
        """
        if value is None:
            return DEFAULT_SPACE
        if isinstance(value, StrategySpace):
            return value
        if isinstance(value, str):
            value = [part for part in value.split(",") if part.strip()]
        members = tuple(
            member if isinstance(member, Parallelism) else Parallelism.parse(member)
            for member in value
        )
        return cls(members)

    @property
    def size(self) -> int:
        """The base ``K`` of the digit encoding."""
        return len(self.members)

    def __iter__(self) -> Iterator[Parallelism]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, member: Parallelism) -> bool:
        return member in self.members

    def __getitem__(self, code: int) -> Parallelism:
        return self.members[code]

    def member(self, code: int) -> Parallelism:
        """The strategy encoded by digit ``code``."""
        if not 0 <= code < self.size:
            raise ValueError(
                f"strategy code {code} out of range for a {self.size}-way space"
            )
        return self.members[code]

    def code_of(self, member: Parallelism) -> int:
        """The digit encoding ``member`` within this space."""
        try:
            return self.members.index(member)
        except ValueError:
            raise ValueError(
                f"{member} is not part of the strategy space {self.describe()}"
            ) from None

    def num_assignments(self, num_layers: int) -> int:
        """Size of the per-level assignment space (``K**L``)."""
        return self.size ** num_layers

    def describe(self) -> str:
        """Human-readable form, e.g. ``"dp,mp,pp"``."""
        return ",".join(member.short for member in self.members)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


#: The paper's binary dp/mp axis -- the default everywhere.
DEFAULT_SPACE = StrategySpace((Parallelism.DATA, Parallelism.MODEL))
#: Every registered strategy, in canonical digit order.
FULL_SPACE = StrategySpace(
    (Parallelism.DATA, Parallelism.MODEL, Parallelism.PIPELINE)
)


@dataclasses.dataclass(frozen=True)
class LayerAssignment:
    """Parallelism choices for every weighted layer at one hierarchy level."""

    choices: tuple[Parallelism, ...]

    def __post_init__(self) -> None:
        if not self.choices:
            raise ValueError("LayerAssignment requires at least one layer")

    @classmethod
    def of(cls, choices: Iterable[Parallelism | str | int]) -> "LayerAssignment":
        """Build an assignment from parallelism values, strings or integer codes."""
        parsed: list[Parallelism] = []
        for choice in choices:
            if isinstance(choice, Parallelism):
                parsed.append(choice)
            elif isinstance(choice, str):
                parsed.append(Parallelism.parse(choice))
            elif isinstance(choice, int):
                # Canonical integer codes: 0 = dp, 1 = mp, 2 = pp.
                parsed.append(FULL_SPACE.member(choice))
            else:
                raise TypeError(f"cannot interpret {choice!r} as a parallelism choice")
        return cls(tuple(parsed))

    @classmethod
    def uniform(cls, parallelism: Parallelism, num_layers: int) -> "LayerAssignment":
        """All ``num_layers`` layers assigned the same parallelism."""
        if num_layers <= 0:
            raise ValueError(f"num_layers must be positive, got {num_layers}")
        return cls(tuple([parallelism] * num_layers))

    @classmethod
    def from_codes(
        cls,
        codes: int,
        num_layers: int,
        strategies: "StrategySpace | Sequence[Parallelism] | str | None" = None,
    ) -> "LayerAssignment":
        """Decode a base-``K`` digit pattern (least-significant digit =
        layer 0) into an assignment over ``strategies``.

        For the default binary dp/mp space this is exactly the bit
        encoding of the Figures 9/10 exploration (``0`` = dp, ``1`` = mp).
        """
        space = StrategySpace.parse(strategies)
        if num_layers <= 0:
            raise ValueError(f"num_layers must be positive, got {num_layers}")
        if codes < 0 or codes >= space.num_assignments(num_layers):
            raise ValueError(
                f"code pattern {codes} out of range for {num_layers} layers "
                f"over a {space.size}-way strategy space"
            )
        base = space.size
        choices = []
        for _ in range(num_layers):
            codes, digit = divmod(codes, base)
            choices.append(space.members[digit])
        return cls(tuple(choices))

    def to_codes(
        self,
        strategies: "StrategySpace | Sequence[Parallelism] | str | None" = None,
    ) -> int:
        """Inverse of :meth:`from_codes`."""
        space = StrategySpace.parse(strategies)
        value = 0
        for choice in reversed(self.choices):
            value = value * space.size + space.code_of(choice)
        return value

    def __iter__(self) -> Iterator[Parallelism]:
        return iter(self.choices)

    def __len__(self) -> int:
        return len(self.choices)

    def __getitem__(self, index: int) -> Parallelism:
        return self.choices[index]

    @property
    def num_layers(self) -> int:
        return len(self.choices)

    def count(self, parallelism: Parallelism) -> int:
        """Number of layers assigned ``parallelism``."""
        return sum(1 for choice in self.choices if choice is parallelism)

    def is_uniform(self, parallelism: Parallelism) -> bool:
        """True when every layer uses ``parallelism``."""
        return all(choice is parallelism for choice in self.choices)

    def as_strings(self) -> list[str]:
        return [choice.short for choice in self.choices]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "-".join(self.as_strings())


@dataclasses.dataclass(frozen=True)
class HierarchicalAssignment:
    """Parallelism choices for every layer at every hierarchy level.

    ``levels[0]`` corresponds to the topmost partition (``H1`` in the paper,
    splitting the whole array into two halves) and ``levels[-1]`` to the
    deepest partition between individual accelerators.
    """

    levels: tuple[LayerAssignment, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("HierarchicalAssignment requires at least one level")
        num_layers = self.levels[0].num_layers
        for level in self.levels:
            if level.num_layers != num_layers:
                raise ValueError(
                    "all hierarchy levels must cover the same number of layers"
                )

    @classmethod
    def of(cls, levels: Sequence[LayerAssignment | Sequence]) -> "HierarchicalAssignment":
        parsed = tuple(
            level if isinstance(level, LayerAssignment) else LayerAssignment.of(level)
            for level in levels
        )
        return cls(parsed)

    @classmethod
    def uniform(
        cls, parallelism: Parallelism, num_levels: int, num_layers: int
    ) -> "HierarchicalAssignment":
        """Every layer at every level uses ``parallelism`` (the paper's defaults)."""
        if num_levels <= 0:
            raise ValueError(f"num_levels must be positive, got {num_levels}")
        level = LayerAssignment.uniform(parallelism, num_layers)
        return cls(tuple([level] * num_levels))

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def num_layers(self) -> int:
        return self.levels[0].num_layers

    @property
    def num_accelerators(self) -> int:
        """Number of accelerators implied by the number of levels (2^H)."""
        return 1 << self.num_levels

    def __iter__(self) -> Iterator[LayerAssignment]:
        return iter(self.levels)

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, level: int) -> LayerAssignment:
        return self.levels[level]

    def choice(self, level: int, layer: int) -> Parallelism:
        """Parallelism of ``layer`` at hierarchy ``level`` (both 0-based)."""
        return self.levels[level][layer]

    def layer_choices(self, layer: int) -> tuple[Parallelism, ...]:
        """The per-level choices for one layer, from H1 down to the deepest level."""
        return tuple(level[layer] for level in self.levels)

    def is_uniform(self, parallelism: Parallelism) -> bool:
        return all(level.is_uniform(parallelism) for level in self.levels)

    def replace_level(self, level: int, assignment: LayerAssignment) -> "HierarchicalAssignment":
        """Return a copy with one hierarchy level replaced."""
        if assignment.num_layers != self.num_layers:
            raise ValueError("replacement level has a different number of layers")
        levels = list(self.levels)
        levels[level] = assignment
        return HierarchicalAssignment(tuple(levels))

    def replace_layer(
        self, layer: int, choices: Sequence[Parallelism]
    ) -> "HierarchicalAssignment":
        """Return a copy with one layer's per-level choices replaced."""
        if len(choices) != self.num_levels:
            raise ValueError(
                f"expected {self.num_levels} per-level choices, got {len(choices)}"
            )
        levels = []
        for level_index, level in enumerate(self.levels):
            new_choices = list(level.choices)
            new_choices[layer] = choices[level_index]
            levels.append(LayerAssignment(tuple(new_choices)))
        return HierarchicalAssignment(tuple(levels))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return " | ".join(f"H{i + 1}:{level}" for i, level in enumerate(self.levels))
