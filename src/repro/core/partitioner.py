"""Algorithm 1: partition between two accelerator (groups).

Given the tensor amounts of every weighted layer, the partitioner chooses
a per-layer strategy (data/model parallelism by default, plus any other
registered strategy in the requested space) so that the total
communication between the two groups -- intra-layer (Table 1) plus
inter-layer (Table 2) -- is minimised.  Because the inter-layer cost only
couples adjacent layers, the optimum is found by a layer-wise dynamic
program in ``O(L * K^2)`` time, exactly as in the paper's Algorithm 1 (for
``K = 2``):

.. code-block:: text

   com[s][l] = min over s' of (com[s'][l-1] + inter[s' -> s]) + intra[s]

The answer is ``min over s of com[s][L-1]`` with the argmin chain giving
the per-layer strategy list.

Two implementations of the recurrence exist:

* :meth:`TwoWayPartitioner.partition_tensors` compiles the tensors into a
  :class:`~repro.core.costs.CostTable` and runs the array DP over it -- the
  table is the same object the batch scorers reuse, and the winning
  result's breakdown is materialized lazily;
* :meth:`TwoWayPartitioner.partition_tensors_reference` is the original
  object-based scalar DP, generalized from the hard-coded dp/mp pair to a
  scan over the strategy space, kept as the oracle the vectorized path is
  property-tested against (the two agree bit-exactly; for the default
  dp/mp space the scan performs the exact additions and ``<=``
  comparisons of the historical two-strategy implementation).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.communication import CommunicationModel
from repro.core.costs import CostTable
from repro.core.parallelism import (
    LayerAssignment,
    Parallelism,
    StrategySpace,
)
from repro.core.result import PartitionResult
from repro.core.tensors import LayerTensors, TensorScale, model_tensors
from repro.nn.model import DNNModel


class TwoWayPartitioner:
    """Dynamic-programming search for the best per-layer parallelism list.

    Parameters
    ----------
    communication_model:
        The cost model used to evaluate intra-/inter-layer traffic; a default
        fp32 model is created when omitted.
    strategies:
        The per-layer strategy space searched over (the paper's dp/mp axis
        by default; pass e.g. ``"dp,mp,pp"`` to include pipeline
        parallelism).
    """

    def __init__(
        self,
        communication_model: CommunicationModel | None = None,
        strategies: StrategySpace | Sequence[Parallelism] | str | None = None,
    ) -> None:
        self.communication_model = communication_model or CommunicationModel()
        self.strategies = StrategySpace.parse(strategies)

    # ------------------------------------------------------------------
    # Core dynamic program over pre-computed tensor amounts.
    # ------------------------------------------------------------------

    def compile_table(
        self,
        tensors: Sequence[LayerTensors],
        edges: Sequence[tuple[int, int]] | None = None,
    ) -> CostTable:
        """Compile per-layer tensor amounts into a reusable cost table.

        ``edges`` is the layer DAG's canonical edge list (``None`` = the
        historical chain).
        """
        return CostTable.from_tensors(
            tensors,
            self.communication_model,
            self.strategies,
            edges=edges,
        )

    def partition_tensors(
        self,
        tensors: Sequence[LayerTensors],
        edges: Sequence[tuple[int, int]] | None = None,
    ) -> PartitionResult:
        """Run the dynamic program over per-layer tensor amounts.

        Compiles a :class:`~repro.core.costs.CostTable` and runs the array
        DP over it; on chains bit-exact with
        :meth:`partition_tensors_reference`, on DAGs (``edges`` given) the
        cut-vertex program of :meth:`CostTable.dp_partition`.
        """
        if not tensors:
            raise ValueError("cannot partition a model with no weighted layers")
        return self.compile_table(tensors, edges=edges).dp_partition()

    def partition_tensors_reference(
        self, tensors: Sequence[LayerTensors]
    ) -> PartitionResult:
        """Object-based scalar DP: the oracle for the vectorized path.

        Chain-only by construction (Algorithm 1's recurrence couples
        adjacent layers): DAG models are scored against the generalized
        :meth:`CommunicationModel.total_bytes` oracle and certified by
        brute-force enumeration instead.

        Performs the same additions in the same order as the historical
        hard-coded dp/mp implementation (a per-target scan over source
        strategies, earliest strategy winning ties), generalized to any
        strategy space, so the property tests can assert the
        :class:`~repro.core.costs.CostTable` DP returns the same optimum
        bytes and the same argmin assignment, including the tie rule (ties
        favour the space's first strategy -- data parallelism -- at every
        step).
        """
        if not tensors:
            raise ValueError("cannot partition a model with no weighted layers")
        model = self.communication_model
        space = self.strategies
        num_layers = len(tensors)

        # com[s] holds the minimal accumulated communication with layer l
        # assigned strategy s; parent[l][s] records the argmin choice of
        # layer l-1 used to reach that state.
        com = {
            choice: model.intra_layer_bytes(tensors[0], choice) for choice in space
        }
        parents: list[dict[Parallelism, Parallelism]] = []

        for layer in range(1, num_layers):
            boundary = tensors[layer - 1]
            next_com: dict[Parallelism, float] = {}
            parent: dict[Parallelism, Parallelism] = {}
            for current in space:
                intra = model.intra_layer_bytes(tensors[layer], current)
                best_source: Parallelism | None = None
                best_cost = 0.0
                for previous in space:
                    cost = com[previous] + model.inter_layer_bytes(
                        previous, current, boundary
                    )
                    # Strict ``<`` keeps the earliest strategy on ties --
                    # the historical ``from_dp <= from_mp`` dp-tie rule.
                    if best_source is None or cost < best_cost:
                        best_source = previous
                        best_cost = cost
                parent[current] = best_source
                next_com[current] = best_cost + intra
            parents.append(parent)
            com = next_com

        # Back-track the argmin chain.  Ties favour the first strategy of
        # the space (data parallelism, the paper's and practice's default).
        last = min(space, key=lambda choice: (com[choice], space.code_of(choice)))
        total = com[last]
        choices = [last]
        for parent in reversed(parents):
            choices.append(parent[choices[-1]])
        choices.reverse()

        assignment = LayerAssignment(tuple(choices))
        breakdown = tuple(model.layer_breakdown(tensors, assignment))
        return PartitionResult(
            assignment=assignment,
            communication_bytes=total,
            breakdown=breakdown,
        )

    # ------------------------------------------------------------------
    # Convenience wrappers.
    # ------------------------------------------------------------------

    def partition(
        self,
        model: DNNModel,
        batch_size: int,
        scales: Sequence[TensorScale] | None = None,
    ) -> PartitionResult:
        """Partition ``model`` between two groups at the given batch size."""
        tensors = model_tensors(model, batch_size, scales)
        return self.partition_tensors(tensors, edges=model.edges)

    def evaluate(
        self,
        tensors: Sequence[LayerTensors],
        assignment: LayerAssignment,
        edges: Sequence[tuple[int, int]] | None = None,
    ) -> PartitionResult:
        """Cost of an arbitrary (not necessarily optimal) assignment.

        Uses the :meth:`CommunicationModel.total_bytes` fast path, so no
        per-layer breakdown objects are allocated unless the caller reads
        ``result.breakdown``.  ``edges`` carries the layer DAG (``None`` =
        chain).
        """
        model = self.communication_model
        total = model.total_bytes(tensors, assignment, edges)
        tensors = tuple(tensors)
        edges = None if edges is None else tuple(edges)
        return PartitionResult(
            assignment=assignment,
            communication_bytes=total,
            breakdown_factory=lambda: tuple(
                model.layer_breakdown(tensors, assignment, edges)
            ),
        )
