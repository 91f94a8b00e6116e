"""Minimal dense classifiers: linear (one layer) or one hidden rectifier
layer (two layers); the number of layers decides the path.

Every parameter lives in one flat float64 vector, `ModelParams.flat`, and
each layer's (weight, bias) is a view into it, laid out in layer order
(weight then bias per layer). Forward/backward are written out
analytically; gradients come back as flat vectors in the same layout, so
the conflict-projection step and the SGD update act on whole vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericError, ParameterError


@dataclass
class ModelParams:
    """All parameters in one flat vector; `layers` are (weight, bias) views into it."""

    layers: list[tuple[np.ndarray, np.ndarray]]  # (weight [out, in], bias [out])
    flat: np.ndarray = field(init=False, repr=False)  # laid out as layer_spans()

    def __post_init__(self):
        self.layers = [
            (np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))
            for w, b in self.layers
        ]
        if len(self.layers) not in (1, 2):
            raise DimensionError(f"a model has 1 or 2 layers, got {len(self.layers)}")
        for w, b in self.layers:
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise DimensionError(f"bad layer shapes {w.shape} / {b.shape}")
            if w.size == 0:
                # per-layer sums over layer_spans() need every span non-empty
                raise DimensionError(f"empty layer weight {w.shape}")
        if len(self.layers) == 2:
            (w0, _), (w1, _) = self.layers
            if w1.shape[1] != w0.shape[0]:
                raise DimensionError(f"layer input width {w1.shape[1]} does not chain from {w0.shape[0]}")
        self.flat = np.concatenate([np.concatenate([w.ravel(), b]) for w, b in self.layers])
        views = iter(self.flat[start : start + size] for _, start, size in self.layer_spans())
        self.layers = [(next(views).reshape(w.shape), next(views)) for w, _ in self.layers]

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def num_classes(self) -> int:
        return self.layers[-1][0].shape[0]

    @property
    def num_params(self) -> int:
        return self.flat.size

    def layer_spans(self) -> list[tuple[str, int, int]]:
        """Name and flat-vector extent of every parameter tensor."""
        spans = []
        offset = 0
        for i, (w, b) in enumerate(self.layers):
            spans.append((f"layer{i}.weight", offset, w.size))
            offset += w.size
            spans.append((f"layer{i}.bias", offset, b.size))
            offset += b.size
        return spans


@dataclass
class ForwardRecord:
    inputs: np.ndarray  # [B, D], kept for the backward pass
    features: np.ndarray  # [B, H] penultimate activations (the inputs when linear)
    logits: np.ndarray  # [B, C]


def init_params(
    input_dim: int, num_classes: int, hidden_dim: int, rng: np.random.Generator
) -> ModelParams:
    """Fan-scaled uniform init: U(+-sqrt(6 / (fan_in + fan_out)))."""
    dims = [input_dim, num_classes] if hidden_dim == 0 else [input_dim, hidden_dim, num_classes]
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        b = rng.uniform(-bound, bound, size=fan_out)
        layers.append((w, b))
    return ModelParams(layers=layers)


def forward(params: ModelParams, batch) -> ForwardRecord:
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"batch must be 2-D [B, D], got shape {x.shape}")
    if x.shape[1] != params.input_dim:
        raise DimensionError(
            f"batch has {x.shape[1]} columns, model expects {params.input_dim}"
        )
    features = x
    if len(params.layers) == 2:
        w0, b0 = params.layers[0]
        features = np.maximum(0.0, x @ w0.T + b0)
    w, b = params.layers[-1]
    return ForwardRecord(inputs=x, features=features, logits=features @ w.T + b)


def backward(params: ModelParams, record: ForwardRecord, dloss_dlogits) -> np.ndarray:
    """Flat gradient of a scalar loss given its logit-gradient [B, C]; for a
    stack of K logit-gradients [K, B, C], the K flat gradients as [K, P],
    each bitwise equal to its own call."""
    g = np.asarray(dloss_dlogits, dtype=np.float64)
    if g.shape[-2:] != record.logits.shape or g.ndim not in (2, 3):
        raise DimensionError(
            f"dloss_dlogits shape {g.shape} must be logits {record.logits.shape} "
            "or a stack of them"
        )
    grads = [(g.swapaxes(-1, -2) @ record.features, g.sum(axis=-2))]
    if len(params.layers) == 2:
        d_hidden = (g @ params.layers[1][0]) * (record.features > 0)
        grads.insert(0, (d_hidden.swapaxes(-1, -2) @ record.inputs, d_hidden.sum(axis=-2)))
    stack = g.shape[:-2]
    return np.concatenate(
        [part for dw, db in grads for part in (dw.reshape(*stack, -1), db)], axis=-1
    )


def sgd_step(
    params: ModelParams,
    grad: np.ndarray,
    lr: float,
    momentum: float,
    velocity: np.ndarray,
) -> tuple[ModelParams, np.ndarray]:
    """Heavy-ball update: v <- momentum*v + g; theta <- theta - lr*v. In place."""
    g = np.asarray(grad, dtype=np.float64)
    if g.shape != (params.num_params,):
        raise DimensionError(
            f"gradient has length {g.size}, model has {params.num_params} params"
        )
    if not (lr > 0):
        raise ParameterError(f"learning rate must be positive, got {lr}")
    if not (0 <= momentum < 1):
        raise ParameterError(f"momentum must be in [0, 1), got {momentum}")
    if not np.isfinite(g).all():
        raise NumericError("gradient contains non-finite entries; step aborted")
    velocity *= momentum
    velocity += g
    params.flat -= lr * velocity
    return params, velocity
