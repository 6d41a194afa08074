"""Network container with resolved shapes.

:class:`DNNModel` is the object the rest of the library operates on.  It is
built from an input shape plus a list of :class:`~repro.nn.layers.LayerSpec`
instances by :func:`build_model`, which runs shape inference once so that
every weighted layer carries its concrete input/output feature-map shapes
and weight count.

The model IR is a **directed acyclic graph** over the weighted layers:
every layer records the indices of its predecessor layers
(:attr:`WeightedLayer.inputs`), multi-input layers merge their branch
outputs (:class:`~repro.nn.shapes.MergeOp`: residual ``ADD`` or channel
``CONCAT``) before consuming them, and :attr:`DNNModel.edges` exposes the
canonical edge list (ordered by consumer index, then input position) that
the cost tables, the simulator and the partitioned executor index their
per-boundary quantities by.  The layer tuple is always a topological
linearization -- predecessors have strictly smaller indices -- and a plain
sequential network degenerates to the historical chain
(``edges == ((0, 1), (1, 2), ...)``, :attr:`DNNModel.is_chain`).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Iterable, Iterator, Sequence

from repro.nn.layers import LayerSpec, LayerType
from repro.nn.shapes import FeatureMapShape, MergeOp, ShapeError, merge_shape


def _hash_once(cls):
    """Memoize the generated ``__hash__`` of a frozen dataclass.

    The generated hash walks every field on every call -- a deep model's
    layers with their specs and shapes -- and models key the table cache
    and the simulator's pass lists.  The first ``hash()`` stores its value
    on the instance.  Pickles and copies leave it out: string hashes differ
    between processes, and sweep workers unpickle models.
    """
    generated = cls.__hash__

    def __hash__(self) -> int:
        value = self.__dict__.get("_hash")
        if value is None:
            value = self.__dict__["_hash"] = generated(self)
        return value

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_hash", None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@_hash_once
@dataclasses.dataclass(frozen=True)
class WeightedLayer:
    """One weighted layer with its shapes resolved.

    Attributes
    ----------
    index:
        Position of this layer among the *weighted* layers (0-based).
    spec:
        The original layer specification.
    input_shape:
        Shape of one slice of ``F_l`` (the layer's input feature map).  For
        a multi-input layer this is the *merged* shape of its branches.
    output_shape:
        Shape of one slice of ``F_{l+1}`` *before* any pooling; this is the
        tensor that appears in the communication model (model parallelism
        communicates partial sums of ``F_{l+1}``).
    post_pool_shape:
        Shape handed to the consumer layers after the optional pooling stage.
    weight_count:
        Number of scalar weights in ``W_l`` (== number of elements of
        ``dW_l``).
    macs_per_sample:
        Forward-pass multiply-accumulates for one input sample.
    inputs:
        Indices of the predecessor layers whose outputs feed this layer, in
        declaration order.  ``None`` (the default) resolves to the chain
        predecessor ``(index - 1,)`` -- or ``()`` for the first layer, which
        reads the training data.
    merge:
        How a multi-input layer combines its predecessors' outputs
        (irrelevant when ``len(inputs) <= 1``).
    """

    index: int
    spec: LayerSpec
    input_shape: FeatureMapShape
    output_shape: FeatureMapShape
    post_pool_shape: FeatureMapShape
    weight_count: int
    macs_per_sample: int
    inputs: tuple[int, ...] | None = None
    merge: MergeOp = MergeOp.ADD

    def __post_init__(self) -> None:
        if self.inputs is None:
            resolved = (self.index - 1,) if self.index > 0 else ()
            object.__setattr__(self, "inputs", resolved)
        else:
            object.__setattr__(self, "inputs", tuple(self.inputs))
        for source in self.inputs:
            if not 0 <= source < self.index:
                raise ShapeError(
                    f"layer {self.spec.name!r} (index {self.index}) cannot take "
                    f"input from layer index {source}; predecessors must come "
                    "earlier in the layer order"
                )
        if len(set(self.inputs)) != len(self.inputs):
            raise ShapeError(
                f"layer {self.spec.name!r} lists a duplicate predecessor: "
                f"{self.inputs}"
            )

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def layer_type(self) -> LayerType:
        return self.spec.layer_type

    @property
    def is_conv(self) -> bool:
        return self.spec.layer_type is LayerType.CONV

    @property
    def is_fc(self) -> bool:
        return self.spec.layer_type is LayerType.FC

    @property
    def is_merge(self) -> bool:
        """True when the layer combines more than one predecessor output."""
        return len(self.inputs) > 1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name}({self.layer_type}): {self.input_shape} -> "
            f"{self.output_shape}, weights={self.weight_count}"
        )


@_hash_once
@dataclasses.dataclass(frozen=True)
class DNNModel:
    """A deep neural network described by its weighted layers.

    Instances are immutable; iterate over them to get
    :class:`WeightedLayer` objects in forward (topological) order.
    """

    name: str
    input_shape: FeatureMapShape
    layers: tuple[WeightedLayer, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ShapeError(f"model {self.name!r} has no weighted layers")
        has_consumer = [False] * len(self.layers)
        for layer in self.layers:
            for source in layer.inputs:
                has_consumer[source] = True
        for layer in self.layers[:-1]:
            if not has_consumer[layer.index]:
                raise ShapeError(
                    f"model {self.name!r}: layer {layer.name!r} has no consumer; "
                    "only the final layer may be the network output"
                )

    def __iter__(self) -> Iterator[WeightedLayer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> WeightedLayer:
        return self.layers[index]

    @property
    def num_weighted_layers(self) -> int:
        return len(self.layers)

    @property
    def num_conv_layers(self) -> int:
        return sum(1 for layer in self.layers if layer.is_conv)

    @property
    def num_fc_layers(self) -> int:
        return sum(1 for layer in self.layers if layer.is_fc)

    @functools.cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Canonical edge list ``(source, destination)`` of the layer DAG.

        Ordered by destination index, then by the destination's input
        position -- the order every edge-indexed table (``CostTable.inter``,
        the simulator's per-edge transfers) uses.  A sequential network
        yields the chain ``((0, 1), (1, 2), ...)``.
        """
        return tuple(
            (source, layer.index) for layer in self.layers for source in layer.inputs
        )

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def is_chain(self) -> bool:
        """True when the layer graph is the historical linear chain."""
        return all(
            layer.inputs == ((layer.index - 1,) if layer.index else ())
            for layer in self.layers
        )

    @functools.cached_property
    def _consumers_by_layer(self) -> tuple[tuple[int, ...], ...]:
        consumers: list[list[int]] = [[] for _ in self.layers]
        for source, destination in self.edges:
            consumers[source].append(destination)
        return tuple(tuple(destinations) for destinations in consumers)

    def consumers(self, index: int) -> tuple[int, ...]:
        """Indices of the layers consuming layer ``index``'s output, ascending."""
        return self._consumers_by_layer[index]

    @property
    def total_weights(self) -> int:
        """Total number of scalar weights in the model."""
        return sum(layer.weight_count for layer in self.layers)

    def total_macs(self, batch_size: int) -> int:
        """Forward-pass multiply-accumulates for a whole batch."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        return batch_size * sum(layer.macs_per_sample for layer in self.layers)

    def layer_by_name(self, name: str) -> WeightedLayer:
        """Look a weighted layer up by its name.

        Raises
        ------
        KeyError
            If no layer with that name exists.
        """
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"model {self.name!r} has no layer named {name!r}")

    def layer_names(self) -> list[str]:
        return [layer.name for layer in self.layers]

    def summary(self) -> str:
        """Human-readable per-layer summary table."""
        lines = [f"Model {self.name!r}: input {self.input_shape}"]
        for layer in self.layers:
            lines.append(
                f"  [{layer.index:2d}] {layer.name:<10s} {str(layer.layer_type):<4s} "
                f"{str(layer.input_shape):>16s} -> {str(layer.output_shape):>16s} "
                f"weights={layer.weight_count:>12,d} macs/sample={layer.macs_per_sample:>14,d}"
            )
        lines.append(
            f"  total: {self.num_weighted_layers} weighted layers "
            f"({self.num_conv_layers} conv, {self.num_fc_layers} fc), "
            f"{self.total_weights:,d} weights"
        )
        return "\n".join(lines)


def build_model(
    name: str,
    input_shape: FeatureMapShape | Sequence[int],
    specs: Iterable[LayerSpec],
) -> DNNModel:
    """Run shape inference over ``specs`` and return a :class:`DNNModel`.

    Parameters
    ----------
    name:
        Model name (used in reports and error messages).
    input_shape:
        Shape of one input sample, either a :class:`FeatureMapShape` or an
        ``(H, W, C)`` triple.
    specs:
        Weighted-layer specifications in forward order.  Layer names must be
        unique.  A spec's ``inputs`` may name any *earlier* layers; with it
        unset the layer consumes its predecessor in the list (the chain
        default), so sequential models build exactly as before.
    """
    if not isinstance(input_shape, FeatureMapShape):
        height, width, channels = input_shape
        input_shape = FeatureMapShape(int(height), int(width), int(channels))

    resolved: list[WeightedLayer] = []
    name_to_index: dict[str, int] = {}
    for index, spec in enumerate(specs):
        if spec.name in name_to_index:
            raise ValueError(f"duplicate layer name {spec.name!r} in model {name!r}")

        merge = MergeOp.parse(spec.merge)
        if spec.inputs is None:
            pred_indices: tuple[int, ...] = (index - 1,) if index > 0 else ()
        else:
            if index == 0 and spec.inputs:
                raise ValueError(
                    f"layer {spec.name!r} is the first layer of model {name!r} "
                    "and cannot name predecessors"
                )
            pred_indices = ()
            for input_name in spec.inputs:
                if input_name not in name_to_index:
                    raise ValueError(
                        f"layer {spec.name!r} of model {name!r} references "
                        f"unknown or later layer {input_name!r}; inputs must "
                        "name earlier layers"
                    )
                pred_indices += (name_to_index[input_name],)

        if not pred_indices:
            current = input_shape
        else:
            branch_shapes = [resolved[i].post_pool_shape for i in pred_indices]
            current = merge_shape(merge, branch_shapes)

        if spec.layer_type is LayerType.FC and not current.is_vector:
            # Implicit flatten when transitioning from a conv stack to the
            # fully-connected classifier.
            layer_input = current.flattened()
        else:
            layer_input = current

        output_shape = spec.output_shape(layer_input)
        post_pool = spec.post_pool_shape(layer_input)
        resolved.append(
            WeightedLayer(
                index=index,
                spec=spec,
                input_shape=layer_input,
                output_shape=output_shape,
                post_pool_shape=post_pool,
                weight_count=spec.weight_elements(layer_input),
                macs_per_sample=spec.macs_per_sample(layer_input),
                inputs=pred_indices,
                merge=merge,
            )
        )
        name_to_index[spec.name] = index

    return DNNModel(name=name, input_shape=input_shape, layers=tuple(resolved))
