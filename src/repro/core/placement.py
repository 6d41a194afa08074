"""Tensor placement: which slice of every tensor each accelerator holds.

The partition algorithms decide *how* each layer is split at each hierarchy
level; this module materialises that decision into concrete shards,
following the tensor layouts of Figure 1 of the paper:

* under **data parallelism** a layer's feature maps and errors are split
  along the batch dimension and its kernel (and gradient) is replicated;
* under **model parallelism** the kernel is split along its *input*
  dimension (rows of the weight matrix, input channels of a convolution),
  the layer's input feature map and input error are split along the same
  feature dimension, and every accelerator produces partial sums of the
  *full* output feature map, which it keeps after the partial-sum exchange;
* under **pipeline parallelism** the layer is *stage-local*: one group of
  the pair owns the whole layer (full kernel, full batch) and the other
  group holds nothing of it.  Consecutive pipeline layers alternate owner
  groups, forming adjacent pipeline stages.

For accelerator ``a`` and layer ``l`` the shard is therefore described by
two half-open fractional intervals:

* ``batch_interval`` -- the fraction of the mini-batch accelerator ``a``
  processes for layer ``l``;
* ``weight_interval`` -- the fraction of the kernel's input dimension (and
  of the layer's input features) accelerator ``a`` stores.

Descending one hierarchy level halves exactly one of the two intervals,
depending on the level's parallelism choice for that layer; which half an
accelerator keeps is determined by the corresponding bit of its index (the
binary-tree numbering of Figure 3).  Placement is purely per-layer, so it
applies unchanged to branching (DAG) models: a merge layer's input
interval describes its share of the *merged* input features (taken
per-branch for CONCAT merges, see :mod:`repro.core.execution`), and
pipeline stage alternation follows the layer order of the topological
linearization.

The module also derives per-accelerator memory footprints and replication
factors (kernels are replicated across data-parallel halvings, output
feature maps across model-parallel halvings), which the tests use to verify
that every layer's tensors are tiled exactly and in a balanced way.
"""

from __future__ import annotations

import dataclasses

from repro.core.parallelism import HierarchicalAssignment, Parallelism
from repro.core.tensors import BYTES_PER_ELEMENT
from repro.nn.model import DNNModel


@dataclasses.dataclass(frozen=True)
class Interval:
    """A half-open fractional interval ``[start, stop)`` within ``[0, 1]``."""

    start: float = 0.0
    stop: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.start < self.stop <= 1.0:
            raise ValueError(f"invalid interval [{self.start}, {self.stop})")

    @property
    def length(self) -> float:
        return self.stop - self.start

    def halve(self, keep_upper: bool) -> "Interval":
        """Return the lower or upper half of this interval."""
        middle = (self.start + self.stop) / 2.0
        if keep_upper:
            return Interval(middle, self.stop)
        return Interval(self.start, middle)

    def overlaps(self, other: "Interval") -> bool:
        return self.start < other.stop and other.start < self.stop

    def slice_of(self, total: int) -> slice:
        """The concrete index slice of a ``total``-element axis."""
        start = int(round(self.start * total))
        stop = int(round(self.stop * total))
        return slice(start, stop)

    def elements(self, total: int) -> float:
        """Number of elements of a ``total``-element axis inside this interval."""
        return total * self.length


@dataclasses.dataclass(frozen=True)
class LayerShard:
    """The portion of one layer's tensors held by one accelerator.

    The fractions follow Figure 1's layouts:

    * the kernel/gradient shard is ``weight_interval`` of the input rows;
    * the input feature map / input error shard is ``batch_interval`` of the
      batch crossed with ``weight_interval`` of the features;
    * the output feature map / output error shard is ``batch_interval`` of
      the batch with the full feature dimension (every accelerator ends up
      with the reduced output for its share of the batch).

    ``owned`` reflects stage-local (pipeline) levels: an accelerator that
    falls outside a pipeline layer's owner group at any level holds nothing
    of that layer, so every fraction collapses to zero.
    """

    accelerator: int
    layer_index: int
    layer_name: str
    batch_interval: Interval
    weight_interval: Interval
    owned: bool = True

    def weight_fraction(self) -> float:
        """Fraction of the kernel (and gradient) tensor held locally."""
        if not self.owned:
            return 0.0
        return self.weight_interval.length

    def feature_out_fraction(self) -> float:
        """Fraction of the output feature map (and output error) held locally."""
        if not self.owned:
            return 0.0
        return self.batch_interval.length


@dataclasses.dataclass(frozen=True)
class AcceleratorFootprint:
    """Per-accelerator storage requirement for one training step (bytes)."""

    accelerator: int
    weight_bytes: float
    gradient_bytes: float
    activation_bytes: float
    error_bytes: float

    @property
    def total_bytes(self) -> float:
        return (
            self.weight_bytes
            + self.gradient_bytes
            + self.activation_bytes
            + self.error_bytes
        )


class TensorPlacement:
    """Shards of every layer's tensors across an accelerator array.

    Parameters
    ----------
    model:
        The network whose tensors are being placed.
    assignment:
        A hierarchical parallelism assignment with ``H`` levels; the array
        holds ``2**H`` accelerators.
    """

    def __init__(self, model: DNNModel, assignment: HierarchicalAssignment) -> None:
        if assignment.num_layers != len(model):
            raise ValueError(
                f"assignment covers {assignment.num_layers} layers, "
                f"model {model.name!r} has {len(model)}"
            )
        self.model = model
        self.assignment = assignment
        self.num_levels = assignment.num_levels
        self.num_accelerators = assignment.num_accelerators
        self._shards = self._build()

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    def _build(self) -> dict[tuple[int, int], LayerShard]:
        # Owner side of every stage-local (pipeline) position: the k-th
        # pipeline layer of a level (in layer order) lives on the upper
        # group when ``k`` is odd, so consecutive pipeline layers form
        # adjacent stages on opposite groups -- the alternation the
        # communication model's pp→pp transition cost assumes.
        pipeline_owner_upper: dict[tuple[int, int], bool] = {}
        for level in range(self.num_levels):
            ordinal = 0
            for layer in self.model:
                if self.assignment.choice(level, layer.index) is Parallelism.PIPELINE:
                    pipeline_owner_upper[(level, layer.index)] = bool(ordinal % 2)
                    ordinal += 1

        shards: dict[tuple[int, int], LayerShard] = {}
        for accelerator in range(self.num_accelerators):
            for layer in self.model:
                batch = Interval()
                weight = Interval()
                owned = True
                for level in range(self.num_levels):
                    # Bit ``level`` of the accelerator index (most significant
                    # first) says whether the accelerator falls in the left or
                    # right group of that level's halving -- the binary-tree
                    # numbering of Figure 3.
                    keep_upper = bool(
                        (accelerator >> (self.num_levels - 1 - level)) & 1
                    )
                    choice = self.assignment.choice(level, layer.index)
                    if choice is Parallelism.DATA:
                        batch = batch.halve(keep_upper)
                    elif choice is Parallelism.MODEL:
                        weight = weight.halve(keep_upper)
                    else:
                        # Stage-local: the layer stays whole, but only on
                        # the owner side of this level's halving.
                        owner_upper = pipeline_owner_upper[(level, layer.index)]
                        owned = owned and (keep_upper == owner_upper)
                shards[(accelerator, layer.index)] = LayerShard(
                    accelerator=accelerator,
                    layer_index=layer.index,
                    layer_name=layer.name,
                    batch_interval=batch,
                    weight_interval=weight,
                    owned=owned,
                )
        return shards

    # ------------------------------------------------------------------
    # Lookups.
    # ------------------------------------------------------------------

    def _layer_index(self, layer: int | str) -> int:
        if isinstance(layer, str):
            return self.model.layer_by_name(layer).index
        return layer

    def shard(self, accelerator: int, layer: int | str) -> LayerShard:
        """The shard of ``layer`` held by ``accelerator``."""
        if not 0 <= accelerator < self.num_accelerators:
            raise ValueError(f"accelerator index {accelerator} out of range")
        return self._shards[(accelerator, self._layer_index(layer))]

    def layer_shards(self, layer: int | str) -> list[LayerShard]:
        """All accelerators' shards of one layer."""
        index = self._layer_index(layer)
        return [self.shard(accelerator, index) for accelerator in range(self.num_accelerators)]

    def accelerator_shards(self, accelerator: int) -> list[LayerShard]:
        """One accelerator's shards of every layer."""
        return [self.shard(accelerator, layer.index) for layer in self.model]

    # ------------------------------------------------------------------
    # Derived quantities.
    # ------------------------------------------------------------------

    def weight_replication_factor(self, layer: int | str) -> float:
        """How many copies of the layer's kernel exist across the array.

        Pure model parallelism yields 1 (each accelerator holds a distinct
        slice); every data-parallel level doubles the replication.
        """
        return sum(shard.weight_fraction() for shard in self.layer_shards(layer))

    def feature_out_replication_factor(self, layer: int | str) -> float:
        """How many copies of the layer's output feature map exist across the array.

        Pure data parallelism yields 1 (disjoint batch slices); every
        model-parallel level doubles the replication because both halves end
        up holding the reduced output for their common batch share.
        """
        return sum(shard.feature_out_fraction() for shard in self.layer_shards(layer))

    def memory_footprint(
        self, batch_size: int, bytes_per_element: int = BYTES_PER_ELEMENT
    ) -> list[AcceleratorFootprint]:
        """Per-accelerator storage for weights, gradients, activations and errors.

        Activations (the output feature maps of every layer) are assumed to
        be kept for the whole step because the backward pass needs them --
        the usual training memory model.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        footprints = []
        for accelerator in range(self.num_accelerators):
            weight_elements = 0.0
            activation_elements = 0.0
            for layer in self.model:
                shard = self.shard(accelerator, layer.index)
                weight_elements += layer.weight_count * shard.weight_fraction()
                activation_elements += (
                    batch_size * layer.output_shape.elements * shard.feature_out_fraction()
                )
            footprints.append(
                AcceleratorFootprint(
                    accelerator=accelerator,
                    weight_bytes=weight_elements * bytes_per_element,
                    gradient_bytes=weight_elements * bytes_per_element,
                    activation_bytes=activation_elements * bytes_per_element,
                    error_bytes=activation_elements * bytes_per_element,
                )
            )
        return footprints

    def max_memory_footprint_bytes(self, batch_size: int) -> float:
        """The largest per-accelerator footprint (bytes) -- the capacity that matters."""
        return max(f.total_bytes for f in self.memory_footprint(batch_size))

    def fits_in_memory(self, batch_size: int, capacity_bytes: float) -> bool:
        """Whether every accelerator's shard fits in ``capacity_bytes`` of local DRAM."""
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        return self.max_memory_footprint_bytes(batch_size) <= capacity_bytes

    # ------------------------------------------------------------------
    # Validation helpers (used heavily by the tests).
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Structural sanity checks on the placement.

        * all *owning* shards of a layer hold the same fraction of work
          (balance); accelerators outside a pipeline layer's stage hold
          nothing of it by construction;
        * the kernel slices of the accelerators tile the kernel exactly
          ``weight_replication_factor`` times;
        * the (batch x input-feature) rectangles of any two owning
          accelerators are either identical or non-overlapping when their
          kernel slices overlap (no tensor element is stored twice within
          one replica).

        Raises ``ValueError`` on the first violated property.
        """
        for layer in self.model:
            shards = self.layer_shards(layer.index)
            owners = [s for s in shards if s.owned]
            if not owners:
                raise ValueError(f"layer {layer.name!r} has no owning accelerator")
            fractions = {
                round(s.batch_interval.length * s.weight_interval.length, 12)
                for s in owners
            }
            if len(fractions) != 1:
                raise ValueError(
                    f"unbalanced shards for layer {layer.name!r}: {sorted(fractions)}"
                )
            weight_total = sum(s.weight_fraction() for s in shards)
            replication = self.weight_replication_factor(layer.index)
            if abs(weight_total - replication) > 1e-9:
                raise ValueError(f"inconsistent kernel coverage for {layer.name!r}")
            for a in owners:
                for b in owners:
                    if a.accelerator >= b.accelerator:
                        continue
                    same_rectangle = (
                        a.batch_interval == b.batch_interval
                        and a.weight_interval == b.weight_interval
                    )
                    disjoint = not a.batch_interval.overlaps(
                        b.batch_interval
                    ) or not a.weight_interval.overlaps(b.weight_interval)
                    if not (same_rectangle or disjoint):
                        raise ValueError(
                            f"partially overlapping shards for layer {layer.name!r}: "
                            f"accelerators {a.accelerator} and {b.accelerator}"
                        )


def placement_summary(placement: TensorPlacement, batch_size: int) -> str:
    """Human-readable summary of a placement (used by the CLI and examples)."""
    lines = [
        f"{placement.model.name}: {placement.num_accelerators} accelerators, "
        f"batch {batch_size}"
    ]
    footprints = placement.memory_footprint(batch_size)
    worst = max(footprints, key=lambda f: f.total_bytes)
    lines.append(
        f"  max per-accelerator footprint: {worst.total_bytes / 2**30:.3f} GiB "
        f"(accelerator {worst.accelerator})"
    )
    for layer in placement.model:
        weight_rep = placement.weight_replication_factor(layer.index)
        feature_rep = placement.feature_out_replication_factor(layer.index)
        lines.append(
            f"  {layer.name:<12s} kernel replicated {weight_rep:4.1f}x, "
            f"output feature map replicated {feature_rep:4.1f}x"
        )
    return "\n".join(lines)
