"""The evaluation networks: the paper's ten chains plus a branching-DAG zoo.

Section 6.1 of the paper evaluates HyPar on ten models spanning three
datasets:

* ``SFC`` and ``SCONV`` -- two purpose-built extreme cases for MNIST
  (Table 3): ``SFC`` is purely fully-connected (784-8192-8192-8192-10) and
  ``SCONV`` is purely convolutional.
* ``Lenet-c`` (MNIST) and ``Cifar-c`` (CIFAR-10) -- the classic Caffe
  reference networks.
* ``AlexNet`` and ``VGG-A`` ... ``VGG-E`` (ImageNet) -- with the
  hyper-parameters from Krizhevsky et al. (2012) and Simonyan & Zisserman
  (2015) respectively.

The number of weighted layers ranges from four (``SFC``, ``SCONV``,
``Lenet-c``) to nineteen (``VGG-E``), matching the paper's description.

Beyond the paper, the zoo carries small *branching* networks exercising the
DAG model IR (:data:`GRAPH_MODEL_BUILDERS`): ``ResNet-S`` (residual ``ADD``
merges) and ``Inception-S`` (multi-branch ``CONCAT`` merges).  They are
deliberately pooling-free with ``NONE``-activated classifiers so the whole
pipeline -- search, placement, numerically-validated partitioned execution
and simulation -- runs on them end to end.  The paper's reporting helpers
(:func:`all_models`, :data:`MODEL_BUILDERS`) keep returning exactly the ten
chains so every figure reproduction stays byte-identical.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Dict, List, Optional, Tuple

from repro.nn.layers import Activation, ConvLayer, FCLayer, LayerSpec, PoolSpec
from repro.nn.model import DNNModel, build_model
from repro.nn.shapes import MergeOp

MNIST_INPUT = (28, 28, 1)
CIFAR_INPUT = (32, 32, 3)
IMAGENET_INPUT = (224, 224, 3)
ALEXNET_INPUT = (227, 227, 3)


def sfc() -> DNNModel:
    """``SFC``: the all-fully-connected extreme case (Table 3).

    Architecture 784-8192-8192-8192-10; four weighted layers, no
    convolutions.  The paper reports 98.28% MNIST accuracy for this network
    and uses it to show that Model Parallelism can beat Data Parallelism
    when every layer is fully connected.
    """
    return build_model(
        "SFC",
        MNIST_INPUT,
        [
            FCLayer(name="fc1", out_features=8192),
            FCLayer(name="fc2", out_features=8192),
            FCLayer(name="fc3", out_features=8192),
            FCLayer(name="fc4", out_features=10, activation=Activation.SOFTMAX),
        ],
    )


def sconv() -> DNNModel:
    """``SCONV``: the all-convolutional extreme case (Table 3).

    ``20@5x5, 50@5x5 (2x2 max pool), 50@5x5, 10@5x5 (2x2 max pool)``; four
    weighted layers, no fully-connected layers.  The paper reports 98.71%
    MNIST accuracy and uses it to show that pure Data Parallelism is optimal
    when every layer is convolutional.
    """
    return build_model(
        "SCONV",
        MNIST_INPUT,
        [
            ConvLayer(name="conv1", out_channels=20, kernel_size=5),
            ConvLayer(name="conv2", out_channels=50, kernel_size=5, pool=PoolSpec(2)),
            ConvLayer(name="conv3", out_channels=50, kernel_size=5),
            ConvLayer(
                name="conv4",
                out_channels=10,
                kernel_size=5,
                pool=PoolSpec(2),
                activation=Activation.SOFTMAX,
            ),
        ],
    )


def lenet_c() -> DNNModel:
    """``Lenet-c``: the Caffe LeNet reference network for MNIST.

    Two convolutional layers followed by two fully-connected layers (four
    weighted layers), as in Figure 5 (c) of the paper.
    """
    return build_model(
        "Lenet-c",
        MNIST_INPUT,
        [
            ConvLayer(name="conv1", out_channels=20, kernel_size=5, pool=PoolSpec(2)),
            ConvLayer(name="conv2", out_channels=50, kernel_size=5, pool=PoolSpec(2)),
            FCLayer(name="fc1", out_features=500),
            FCLayer(name="fc2", out_features=10, activation=Activation.SOFTMAX),
        ],
    )


def cifar_c() -> DNNModel:
    """``Cifar-c``: the Caffe CIFAR-10 "quick" reference network.

    Three convolutional layers and two fully-connected layers (five weighted
    layers), as in Figure 5 (d).
    """
    return build_model(
        "Cifar-c",
        CIFAR_INPUT,
        [
            ConvLayer(
                name="conv1",
                out_channels=32,
                kernel_size=5,
                padding=2,
                pool=PoolSpec(3, stride=2, ceil_mode=True),
            ),
            ConvLayer(
                name="conv2",
                out_channels=32,
                kernel_size=5,
                padding=2,
                pool=PoolSpec(3, stride=2, kind="avg", ceil_mode=True),
            ),
            ConvLayer(
                name="conv3",
                out_channels=64,
                kernel_size=5,
                padding=2,
                pool=PoolSpec(3, stride=2, kind="avg", ceil_mode=True),
            ),
            FCLayer(name="fc1", out_features=64),
            FCLayer(name="fc2", out_features=10, activation=Activation.SOFTMAX),
        ],
    )


def alexnet() -> DNNModel:
    """``AlexNet`` (Krizhevsky et al., 2012): five conv + three fc layers."""
    return build_model(
        "AlexNet",
        ALEXNET_INPUT,
        [
            ConvLayer(
                name="conv1",
                out_channels=96,
                kernel_size=11,
                stride=4,
                pool=PoolSpec(3, stride=2),
            ),
            ConvLayer(
                name="conv2",
                out_channels=256,
                kernel_size=5,
                padding=2,
                pool=PoolSpec(3, stride=2),
            ),
            ConvLayer(name="conv3", out_channels=384, kernel_size=3, padding=1),
            ConvLayer(name="conv4", out_channels=384, kernel_size=3, padding=1),
            ConvLayer(
                name="conv5",
                out_channels=256,
                kernel_size=3,
                padding=1,
                pool=PoolSpec(3, stride=2),
            ),
            FCLayer(name="fc1", out_features=4096),
            FCLayer(name="fc2", out_features=4096),
            FCLayer(name="fc3", out_features=1000, activation=Activation.SOFTMAX),
        ],
    )


def _vgg_classifier() -> List[LayerSpec]:
    """The three fully-connected layers shared by all VGG variants."""
    return [
        FCLayer(name="fc1", out_features=4096),
        FCLayer(name="fc2", out_features=4096),
        FCLayer(name="fc3", out_features=1000, activation=Activation.SOFTMAX),
    ]


def _vgg_conv(name: str, channels: int, kernel_size: int = 3, pool: bool = False) -> ConvLayer:
    """One VGG convolution: 3x3 pad 1 by default, optional trailing 2x2 max pool."""
    padding = 1 if kernel_size == 3 else 0
    return ConvLayer(
        name=name,
        out_channels=channels,
        kernel_size=kernel_size,
        padding=padding,
        pool=PoolSpec(2) if pool else None,
    )


def vgg_a() -> DNNModel:
    """``VGG-A`` (configuration A, 11 weighted layers)."""
    return build_model(
        "VGG-A",
        IMAGENET_INPUT,
        [
            _vgg_conv("conv1_1", 64, pool=True),
            _vgg_conv("conv2_1", 128, pool=True),
            _vgg_conv("conv3_1", 256),
            _vgg_conv("conv3_2", 256, pool=True),
            _vgg_conv("conv4_1", 512),
            _vgg_conv("conv4_2", 512, pool=True),
            _vgg_conv("conv5_1", 512),
            _vgg_conv("conv5_2", 512, pool=True),
            *_vgg_classifier(),
        ],
    )


def vgg_b() -> DNNModel:
    """``VGG-B`` (configuration B, 13 weighted layers)."""
    return build_model(
        "VGG-B",
        IMAGENET_INPUT,
        [
            _vgg_conv("conv1_1", 64),
            _vgg_conv("conv1_2", 64, pool=True),
            _vgg_conv("conv2_1", 128),
            _vgg_conv("conv2_2", 128, pool=True),
            _vgg_conv("conv3_1", 256),
            _vgg_conv("conv3_2", 256, pool=True),
            _vgg_conv("conv4_1", 512),
            _vgg_conv("conv4_2", 512, pool=True),
            _vgg_conv("conv5_1", 512),
            _vgg_conv("conv5_2", 512, pool=True),
            *_vgg_classifier(),
        ],
    )


def vgg_c() -> DNNModel:
    """``VGG-C`` (configuration C, 16 weighted layers; the extra per-block convs are 1x1)."""
    return build_model(
        "VGG-C",
        IMAGENET_INPUT,
        [
            _vgg_conv("conv1_1", 64),
            _vgg_conv("conv1_2", 64, pool=True),
            _vgg_conv("conv2_1", 128),
            _vgg_conv("conv2_2", 128, pool=True),
            _vgg_conv("conv3_1", 256),
            _vgg_conv("conv3_2", 256),
            _vgg_conv("conv3_3", 256, kernel_size=1, pool=True),
            _vgg_conv("conv4_1", 512),
            _vgg_conv("conv4_2", 512),
            _vgg_conv("conv4_3", 512, kernel_size=1, pool=True),
            _vgg_conv("conv5_1", 512),
            _vgg_conv("conv5_2", 512),
            _vgg_conv("conv5_3", 512, kernel_size=1, pool=True),
            *_vgg_classifier(),
        ],
    )


def vgg_d() -> DNNModel:
    """``VGG-D`` (configuration D, 16 weighted layers, all 3x3 -- the common "VGG-16")."""
    return build_model(
        "VGG-D",
        IMAGENET_INPUT,
        [
            _vgg_conv("conv1_1", 64),
            _vgg_conv("conv1_2", 64, pool=True),
            _vgg_conv("conv2_1", 128),
            _vgg_conv("conv2_2", 128, pool=True),
            _vgg_conv("conv3_1", 256),
            _vgg_conv("conv3_2", 256),
            _vgg_conv("conv3_3", 256, pool=True),
            _vgg_conv("conv4_1", 512),
            _vgg_conv("conv4_2", 512),
            _vgg_conv("conv4_3", 512, pool=True),
            _vgg_conv("conv5_1", 512),
            _vgg_conv("conv5_2", 512),
            _vgg_conv("conv5_3", 512, pool=True),
            *_vgg_classifier(),
        ],
    )


def vgg_e() -> DNNModel:
    """``VGG-E`` (configuration E, 19 weighted layers -- the common "VGG-19")."""
    return build_model(
        "VGG-E",
        IMAGENET_INPUT,
        [
            _vgg_conv("conv1_1", 64),
            _vgg_conv("conv1_2", 64, pool=True),
            _vgg_conv("conv2_1", 128),
            _vgg_conv("conv2_2", 128, pool=True),
            _vgg_conv("conv3_1", 256),
            _vgg_conv("conv3_2", 256),
            _vgg_conv("conv3_3", 256),
            _vgg_conv("conv3_4", 256, pool=True),
            _vgg_conv("conv4_1", 512),
            _vgg_conv("conv4_2", 512),
            _vgg_conv("conv4_3", 512),
            _vgg_conv("conv4_4", 512, pool=True),
            _vgg_conv("conv5_1", 512),
            _vgg_conv("conv5_2", 512),
            _vgg_conv("conv5_3", 512),
            _vgg_conv("conv5_4", 512, pool=True),
            *_vgg_classifier(),
        ],
    )


def resnet_s() -> DNNModel:
    """``ResNet-S``: a small residual network exercising ``ADD`` merges.

    CIFAR-style stem plus three basic blocks.  Each block is two 3x3
    convolutions whose output is summed with the block input by the *next*
    weighted layer (the merge is attached to the consumer, so the residual
    sum is materialised exactly where it is consumed); the two downsampling
    transitions use stride-2 convolutions instead of pooling, which keeps
    the network executable by the numerical reference executor.  Ten
    weighted layers, three ``ADD`` merge points, twelve edges (nine chain
    edges plus three skips).
    """
    return build_model(
        "ResNet-S",
        CIFAR_INPUT,
        [
            ConvLayer(name="stem", out_channels=16, kernel_size=3, padding=1),
            ConvLayer(name="res1a", out_channels=16, kernel_size=3, padding=1),
            ConvLayer(name="res1b", out_channels=16, kernel_size=3, padding=1),
            ConvLayer(
                name="down1",
                out_channels=32,
                kernel_size=3,
                stride=2,
                padding=1,
                inputs=("stem", "res1b"),
                merge=MergeOp.ADD,
            ),
            ConvLayer(name="res2a", out_channels=32, kernel_size=3, padding=1),
            ConvLayer(name="res2b", out_channels=32, kernel_size=3, padding=1),
            ConvLayer(
                name="down2",
                out_channels=64,
                kernel_size=3,
                stride=2,
                padding=1,
                inputs=("down1", "res2b"),
                merge=MergeOp.ADD,
            ),
            ConvLayer(name="res3a", out_channels=64, kernel_size=3, padding=1),
            ConvLayer(name="res3b", out_channels=64, kernel_size=3, padding=1),
            FCLayer(
                name="fc",
                out_features=10,
                activation=Activation.NONE,
                inputs=("down2", "res3b"),
                merge=MergeOp.ADD,
            ),
        ],
    )


def inception_s() -> DNNModel:
    """``Inception-S``: a small multi-branch network exercising ``CONCAT`` merges.

    A stem convolution feeds two Inception-style blocks.  Each block fans
    out into a 1x1 branch, a 3x3 branch and a 1x1→5x5 branch; the branch
    outputs are channel-concatenated by the consuming layer (a 1x1
    reduction after the first block, the classifier after the second).
    Pooling-free with same-padding branches, so every branch keeps the
    spatial dimensions and the whole network runs through the reference
    executor.  Eleven weighted layers, two ``CONCAT`` merge points.
    """
    return build_model(
        "Inception-S",
        CIFAR_INPUT,
        [
            ConvLayer(name="stem", out_channels=16, kernel_size=3, padding=1),
            ConvLayer(name="a1x1", out_channels=8, kernel_size=1, inputs=("stem",)),
            ConvLayer(
                name="a3x3", out_channels=16, kernel_size=3, padding=1, inputs=("stem",)
            ),
            ConvLayer(name="a5red", out_channels=8, kernel_size=1, inputs=("stem",)),
            ConvLayer(name="a5x5", out_channels=16, kernel_size=5, padding=2),
            ConvLayer(
                name="reduce",
                out_channels=32,
                kernel_size=1,
                inputs=("a1x1", "a3x3", "a5x5"),
                merge=MergeOp.CONCAT,
            ),
            ConvLayer(name="b1x1", out_channels=16, kernel_size=1, inputs=("reduce",)),
            ConvLayer(
                name="b3x3", out_channels=32, kernel_size=3, padding=1, inputs=("reduce",)
            ),
            ConvLayer(name="b5red", out_channels=8, kernel_size=1, inputs=("reduce",)),
            ConvLayer(name="b5x5", out_channels=16, kernel_size=5, padding=2),
            FCLayer(
                name="fc",
                out_features=10,
                activation=Activation.NONE,
                inputs=("b1x1", "b3x3", "b5x5"),
                merge=MergeOp.CONCAT,
            ),
        ],
    )


#: Default transformer depth (in attention+MLP blocks) used when a
#: parameterized builder is invoked without an explicit ``layers=``.
DEFAULT_TRANSFORMER_LAYERS = 12


def _transformer_chain(
    name: str, hidden: int, input_shape: Tuple[int, int, int], vocab: int, blocks: int
) -> DNNModel:
    """A GPT/BERT-style chain: embed stem, repeated blocks, softmax head.

    Each block is the four weighted projections of one transformer layer
    (``qkv`` fused 3h, attention output ``proj`` h, MLP ``up`` 4h, MLP
    ``down`` h), so a depth-``N`` model is a chain of ``4N + 2`` weighted
    layers.  Per-token shapes (``1x1`` spatial, ``hidden`` channels) keep
    the chain IR -- and therefore every existing search engine -- working
    unchanged; the interior repetition is exactly what the DP memoization
    of :meth:`repro.core.costs.CostTable.dp_partition` exploits.
    """
    if blocks < 1:
        raise ValueError(f"layers must be a positive block count, got {blocks}")
    specs: List[LayerSpec] = [FCLayer(name="embed", out_features=hidden)]
    for i in range(blocks):
        specs += [
            FCLayer(name=f"b{i}_qkv", out_features=3 * hidden),
            FCLayer(name=f"b{i}_proj", out_features=hidden),
            FCLayer(name=f"b{i}_up", out_features=4 * hidden),
            FCLayer(name=f"b{i}_down", out_features=hidden),
        ]
    specs.append(FCLayer(name="head", out_features=vocab, activation=Activation.SOFTMAX))
    return build_model(name, input_shape, specs)


def gpt_s(layers: int = DEFAULT_TRANSFORMER_LAYERS) -> DNNModel:
    """``gpt_s``: a small-GPT-proportioned transformer chain, depth ``layers``.

    Hidden width 192 (so the fused QKV is 576 and the MLP expands to 768),
    vocabulary 1000.  ``layers`` counts attention+MLP blocks; the built
    model is named ``gpt_s-{layers}`` and has ``4 * layers + 2`` weighted
    layers.
    """
    return _transformer_chain(f"gpt_s-{layers}", 192, (1, 1, 64), 1000, layers)


def bert_s(layers: int = DEFAULT_TRANSFORMER_LAYERS) -> DNNModel:
    """``bert_s``: a small-BERT-proportioned transformer chain, depth ``layers``.

    Wider than :func:`gpt_s` (hidden 256, vocabulary 2000, 128-channel
    token input) so the two families exercise different cost tables at the
    same depth.  Named ``bert_s-{layers}``, ``4 * layers + 2`` weighted
    layers.
    """
    return _transformer_chain(f"bert_s-{layers}", 256, (1, 1, 128), 2000, layers)


def _transformer_dag(
    name: str, hidden: int, input_shape: Tuple[int, int, int], vocab: int, blocks: int
) -> DNNModel:
    """A residual transformer *DAG*: chain blocks plus ``ADD`` skips.

    Same four weighted projections per block as
    :func:`_transformer_chain`, but every block past the first merges its
    ``qkv`` input from the previous block's ``down`` output *and* a
    residual skip from the previous block's ``proj`` output (both width
    ``hidden``, so the ``ADD`` shapes agree).  The skips span the
    previous block's MLP, so ``up``/``down`` become branch interiors and
    the cut-vertex DP alternates between a trivial connector segment and
    a two-interior enumeration segment -- a block-space period of two
    that the DAG repetition memoizer detects and jumps.
    """
    if blocks < 1:
        raise ValueError(f"layers must be a positive block count, got {blocks}")
    specs: List[LayerSpec] = [FCLayer(name="embed", out_features=hidden)]
    for i in range(blocks):
        if i == 0:
            qkv = FCLayer(name=f"b{i}_qkv", out_features=3 * hidden)
        else:
            qkv = FCLayer(
                name=f"b{i}_qkv",
                out_features=3 * hidden,
                inputs=(f"b{i - 1}_down", f"b{i - 1}_proj"),
                merge=MergeOp.ADD,
            )
        specs += [
            qkv,
            FCLayer(name=f"b{i}_proj", out_features=hidden),
            FCLayer(name=f"b{i}_up", out_features=4 * hidden),
            FCLayer(name=f"b{i}_down", out_features=hidden),
        ]
    specs.append(FCLayer(name="head", out_features=vocab, activation=Activation.SOFTMAX))
    return build_model(name, input_shape, specs)


def gpt_r(layers: int = DEFAULT_TRANSFORMER_LAYERS) -> DNNModel:
    """``gpt_r``: :func:`gpt_s` proportions with residual ``ADD`` skips.

    The residual variant of the small-GPT chain: identical widths (hidden
    192, vocabulary 1000) and the same ``4 * layers + 2`` weighted
    layers, but each block's fused QKV adds the previous block's
    attention output to its MLP output, making the model a branching DAG
    routed through the cut-vertex dynamic program.  Named
    ``gpt_r-{layers}``.
    """
    return _transformer_dag(f"gpt_r-{layers}", 192, (1, 1, 64), 1000, layers)


#: Parameterized (depth-``N``) builders.  Unlike :data:`MODEL_BUILDERS`
#: entries these accept a ``layers=`` block count; name resolution accepts
#: both the bare family name (``gpt_s`` -> default depth) and the
#: depth-suffixed spelling (``gpt_s-96``, ``bert_s-24``, ``gpt_r-48``).
PARAMETERIZED_MODEL_BUILDERS: Dict[str, Callable[..., DNNModel]] = {
    "gpt_s": gpt_s,
    "bert_s": bert_s,
    "gpt_r": gpt_r,
}

#: Ordered mapping from canonical model name to its builder.  The order
#: matches the x-axis of Figures 6-8 and 12 of the paper.
MODEL_BUILDERS: Dict[str, Callable[[], DNNModel]] = {
    "SFC": sfc,
    "SCONV": sconv,
    "Lenet-c": lenet_c,
    "Cifar-c": cifar_c,
    "AlexNet": alexnet,
    "VGG-A": vgg_a,
    "VGG-B": vgg_b,
    "VGG-C": vgg_c,
    "VGG-D": vgg_d,
    "VGG-E": vgg_e,
}

#: The branching (DAG) additions to the zoo.  Kept separate from
#: :data:`MODEL_BUILDERS` so the paper's figure reproductions (which iterate
#: the ten chains) stay byte-identical; :func:`get_model` and the CLI model
#: listing resolve both.
GRAPH_MODEL_BUILDERS: Dict[str, Callable[[], DNNModel]] = {
    "ResNet-S": resnet_s,
    "Inception-S": inception_s,
}

def all_model_builders() -> Dict[str, Callable[[], DNNModel]]:
    """Every builder: canonical chains, the graph zoo, then parameterized.

    Built per call from the live dicts, so downstream registration
    (``MODEL_BUILDERS["MyNet"] = builder``) is visible to the model
    listing and to :func:`get_model` alike.  Parameterized entries appear
    under their bare family names and build the default depth when called
    with no arguments.
    """
    return {**MODEL_BUILDERS, **GRAPH_MODEL_BUILDERS, **PARAMETERIZED_MODEL_BUILDERS}

#: Aliases accepted by :func:`get_model` in addition to the canonical names.
#: Lookup normalizes case and strips ``-``/``_`` separators on both sides,
#: so every spelling variant of an alias (``vgg-a``, ``vgg_a``, ``VGG_A``)
#: resolves without listing each one.
_ALIASES: Dict[str, str] = {
    "lenet": "Lenet-c",
    "cifar": "Cifar-c",
    "vgg11": "VGG-A",
    "vgg13": "VGG-B",
    "vgg16": "VGG-D",
    "vgg19": "VGG-E",
    "resnet": "ResNet-S",
    "inception": "Inception-S",
}


def _normalize_model_name(name: str) -> str:
    """Case-fold and strip the ``-``/``_`` separators of a model name."""
    return name.strip().lower().replace("-", "").replace("_", "")


@functools.lru_cache(maxsize=8)
def _normalized_lookup(names: Tuple[str, ...]) -> Dict[str, str]:
    """Normalized spelling -> canonical name, for one set of zoo names.

    Memoized on the names themselves (the keys of
    :func:`all_model_builders` at call time), so live registration stays
    visible.  Callers must not mutate the returned table.
    """
    lookup: Dict[str, str] = {}
    for canonical in names:
        lookup[_normalize_model_name(canonical)] = canonical
    for alias, canonical in _ALIASES.items():
        lookup.setdefault(_normalize_model_name(alias), canonical)
    return lookup


@functools.lru_cache(maxsize=8)
def _family_lookup(families: Tuple[str, ...]) -> Dict[str, str]:
    """Normalized family name -> parameterized family, memoized likewise."""
    return {_normalize_model_name(family): family for family in families}


def _split_parameterized(canonical: str) -> Tuple[Optional[str], Optional[int]]:
    """``(family, depth)`` of a canonical parameterized name, else ``(None, None)``.

    ``"gpt_s"`` -> ``("gpt_s", None)`` (default depth), ``"gpt_s-96"`` ->
    ``("gpt_s", 96)``, ``"VGG-A"`` -> ``(None, None)``.
    """
    if canonical in PARAMETERIZED_MODEL_BUILDERS:
        return canonical, None
    family, separator, suffix = canonical.rpartition("-")
    if separator and family in PARAMETERIZED_MODEL_BUILDERS and suffix.isdigit():
        return family, int(suffix)
    return None, None


def _parse_depth_suffix(normalized: str) -> Optional[str]:
    """Resolve a normalized depth-suffixed spelling to its canonical name.

    ``"gpts96"`` (any of ``gpt_s-96``/``gpt-s-96``/``GPT_S_96``/``gpts96``
    before normalization) -> ``"gpt_s-96"``.  Returns ``None`` when the
    name is not ``<family><digits>`` for a parameterized family.
    """
    match = re.fullmatch(r"([a-z]+?)0*(\d+)", normalized)
    if match is None:
        return None
    family = _family_lookup(tuple(PARAMETERIZED_MODEL_BUILDERS)).get(match.group(1))
    if family is None:
        return None
    return f"{family}-{int(match.group(2))}"


def canonical_model_name(name: str) -> str:
    """Resolve ``name`` to the canonical zoo spelling without building it.

    Accepts everything :func:`get_model` accepts (case and ``-``/``_``
    variants, aliases, depth-suffixed parameterized spellings such as
    ``gpt_s-96``) and raises the same :class:`KeyError` for unknown names
    -- and for a depth-0 spelling (``gpt_s-0``), which builds no model.
    The service layer canonicalizes request payloads with this so
    ``vgg_a`` and ``VGG-A`` hash to the same cache key (and ``gpts96`` /
    ``GPT_S-96`` to ``gpt_s-96``).
    """
    builders = all_model_builders()
    normalized = _normalize_model_name(name)
    canonical = _normalized_lookup(tuple(builders)).get(normalized)
    if canonical is not None:
        return canonical
    # Depth-suffixed parameterized spellings resolve after the exact table
    # so digit-bearing aliases ("vgg16") and registered names keep winning.
    parameterized = _parse_depth_suffix(normalized)
    if parameterized is not None:
        family, depth = _split_parameterized(parameterized)
        if not depth:
            raise KeyError(
                f"model {name!r} has no blocks; a parameterized model takes "
                f"a positive depth ({family}-<N>, N >= 1)"
            )
        return parameterized
    known = ", ".join(builders)
    aliases = ", ".join(sorted(_ALIASES))
    parameterized_names = ", ".join(
        f"{family}-<N>" for family in PARAMETERIZED_MODEL_BUILDERS
    )
    raise KeyError(
        f"unknown model {name!r}; known models: {known}; "
        f"aliases (separators '-'/'_' are interchangeable): {aliases}; "
        f"parameterized (depth-N transformer chains): {parameterized_names}"
    )


def get_model(name: str, layers: Optional[int] = None) -> DNNModel:
    """Return one of the evaluation networks by (case-insensitive) name.

    Lookup is tolerant of ``-`` versus ``_`` separators (``vgg-a``,
    ``vgg_a`` and ``VGG_A`` all resolve to ``VGG-A``) and accepts the
    aliases of :data:`_ALIASES` (``lenet``, ``vgg16``, ``resnet``, ...).
    Parameterized transformer chains resolve from the bare family name
    (``gpt_s`` builds the default depth), a depth-suffixed spelling
    (``gpt_s-96``), or the family name plus ``layers=``.

    Raises
    ------
    KeyError
        If the name is not one of the known models or aliases; the message
        lists the canonical names, the accepted aliases, and the
        parameterized families.
    ValueError
        If ``layers`` is passed for a non-parameterized model, or
        contradicts a depth-suffixed spelling (``get_model("gpt_s-96",
        layers=12)``).
    """
    canonical = canonical_model_name(name)
    family, depth = _split_parameterized(canonical)
    if family is not None:
        if layers is not None:
            if depth is not None and depth != layers:
                raise ValueError(
                    f"conflicting depths for {name!r}: name says {depth} "
                    f"blocks but layers={layers}"
                )
            depth = layers
        builder = PARAMETERIZED_MODEL_BUILDERS[family]
        return builder(depth) if depth is not None else builder()
    if layers is not None:
        parameterized_names = ", ".join(PARAMETERIZED_MODEL_BUILDERS)
        raise ValueError(
            f"layers= only applies to the parameterized models "
            f"({parameterized_names}); {canonical!r} has a fixed depth"
        )
    return all_model_builders()[canonical]()


def all_models() -> List[DNNModel]:
    """Build all ten evaluation networks, in the paper's reporting order."""
    return [builder() for builder in MODEL_BUILDERS.values()]


def all_graph_models() -> List[DNNModel]:
    """Build the branching-DAG zoo additions (``ResNet-S``, ``Inception-S``)."""
    return [builder() for builder in GRAPH_MODEL_BUILDERS.values()]
