"""DNN model-description substrate.

HyPar's partition search and evaluation only need the *shapes* of the
tensors flowing through a network, never the tensor values.  This package
provides the layer specifications, shape-inference machinery and model
builder used to describe the ten evaluation networks of the paper, plus the
model zoo itself (:mod:`repro.nn.model_zoo`).

Public API
----------

``LayerSpec`` hierarchy
    :class:`~repro.nn.layers.ConvLayer`, :class:`~repro.nn.layers.FCLayer`,
    together with the auxiliary :class:`~repro.nn.layers.PoolSpec` and
    :class:`~repro.nn.layers.Activation` descriptors.

:class:`~repro.nn.model.DNNModel`
    An ordered collection of weighted layers with resolved shapes.

:func:`~repro.nn.model.build_model`
    Build a :class:`DNNModel` from an input shape and a list of layer
    specifications, running shape inference.

:mod:`repro.nn.model_zoo`
    ``sfc()``, ``sconv()``, ``lenet_c()``, ``cifar_c()``, ``alexnet()``,
    ``vgg_a()`` ... ``vgg_e()`` and the :func:`~repro.nn.model_zoo.get_model`
    / :func:`~repro.nn.model_zoo.all_models` helpers.
"""

from repro._exports import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "Activation": "layers",
    "ConvLayer": "layers",
    "FCLayer": "layers",
    "LayerSpec": "layers",
    "LayerType": "layers",
    "PoolSpec": "layers",
    "DNNModel": "model",
    "WeightedLayer": "model",
    "build_model": "model",
    "FeatureMapShape": "shapes",
    "MergeOp": "shapes",
    "conv_output_shape": "shapes",
    "merge_shape": "shapes",
    "pool_output_shape": "shapes",
    "MODEL_BUILDERS": "model_zoo",
    "GRAPH_MODEL_BUILDERS": "model_zoo",
    "all_model_builders": "model_zoo",
    "get_model": "model_zoo",
    "all_models": "model_zoo",
    "all_graph_models": "model_zoo",
    "resnet_s": "model_zoo",
    "inception_s": "model_zoo",
    "sfc": "model_zoo",
    "sconv": "model_zoo",
    "lenet_c": "model_zoo",
    "cifar_c": "model_zoo",
    "alexnet": "model_zoo",
    "vgg_a": "model_zoo",
    "vgg_b": "model_zoo",
    "vgg_c": "model_zoo",
    "vgg_d": "model_zoo",
    "vgg_e": "model_zoo",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
