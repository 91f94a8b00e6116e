"""A minimal dense classifier: one hidden rectifier layer, then a linear
read-out to the logits (two layers).

Every parameter lives in one flat float64 vector, `ModelParams.flat`, and
each layer's (weight, bias) is a view into it, laid out in layer order
(weight then bias per layer). Forward/backward are written out
analytically; gradients come back as flat vectors in the same layout, so
the conflict-projection step and the SGD update act on whole vectors.

A stack of S models of one shape keeps a run axis first: `flat` is
[S, P], weights are [S, out, in] views, a batch is [S, B, D], and every
function here treats each model as its own; model s of a stack computes
what it computes alone, bit for bit.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericError


@dataclass
class ModelParams:
    """All parameters in one flat vector ([S, P] for a stack of S models);
    `layers` are (weight, bias) views into it."""

    layers: list[tuple[np.ndarray, np.ndarray]]  # (weight [..., out, in], bias [..., out])
    flat: np.ndarray = field(init=False, repr=False)  # [..., P], laid out as layer_spans()

    def __post_init__(self):
        self.layers = [
            (np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))
            for w, b in self.layers
        ]
        if len(self.layers) != 2:
            raise DimensionError(f"a model has 2 layers, got {len(self.layers)}")
        lead = self.layers[0][0].shape[:-2]
        for w, b in self.layers:
            if w.ndim not in (2, 3) or w.shape[:-2] != lead or b.shape != w.shape[:-1]:
                raise DimensionError(f"bad layer shapes {w.shape} / {b.shape}")
            if w.size == 0:
                # per-layer sums over layer_spans() need every span non-empty
                raise DimensionError(f"empty layer weight {w.shape}")
        (w0, _), (w1, _) = self.layers
        if w1.shape[-1] != w0.shape[-2]:
            raise DimensionError(f"layer input width {w1.shape[-1]} does not chain from {w0.shape[-2]}")
        self.flat = np.concatenate(
            [np.concatenate([w.reshape(*lead, -1), b], axis=-1) for w, b in self.layers], axis=-1
        )
        views = iter(self.flat[..., start : start + size] for _, start, size in self.layer_spans())
        self.layers = [(next(views).reshape(w.shape), next(views)) for w, _ in self.layers]

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[-1]

    @property
    def num_params(self) -> int:
        return self.flat.shape[-1]

    def layer_spans(self) -> list[tuple[str, int, int]]:
        """Name and flat-vector extent of every parameter tensor."""
        spans = []
        offset = 0
        for i, (w, b) in enumerate(self.layers):
            size = math.prod(w.shape[-2:])
            spans.append((f"layer{i}.weight", offset, size))
            offset += size
            spans.append((f"layer{i}.bias", offset, b.shape[-1]))
            offset += b.shape[-1]
        return spans

    def run(self, s: int) -> ModelParams:
        """Model s of a stack, its layers and flat vector views into the stack's."""
        one = copy.copy(self)
        one.flat = self.flat[s]
        one.layers = [(w[s], b[s]) for w, b in self.layers]
        return one


def stack_params(models: list[ModelParams]) -> ModelParams:
    """Models of one shape as one stack; row s of its flat buffer is models[s].flat."""
    return ModelParams(
        layers=[tuple(np.stack(parts) for parts in zip(*layer))
                for layer in zip(*(m.layers for m in models))]
    )


@dataclass
class ForwardRecord:
    inputs: np.ndarray  # [..., B, D], kept for the backward pass
    features: np.ndarray  # [..., B, H] hidden ReLU activations
    logits: np.ndarray  # [..., B, C]


def init_params(
    input_dim: int, num_classes: int, hidden_dim: int, rng: np.random.Generator
) -> ModelParams:
    """Fan-scaled uniform init: U(+-sqrt(6 / (fan_in + fan_out)))."""
    dims = [input_dim, hidden_dim, num_classes]
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        b = rng.uniform(-bound, bound, size=fan_out)
        layers.append((w, b))
    return ModelParams(layers=layers)


def forward(params: ModelParams, batch) -> ForwardRecord:
    """Logits of a [B, D] batch, or of an [S, B, D] stack for a stack of S models."""
    x = np.asarray(batch, dtype=np.float64)
    lead = params.flat.shape[:-1]
    if x.ndim != len(lead) + 2 or x.shape[:-2] != lead:
        want = f"[{lead[0]}, B, D]" if lead else "2-D [B, D]"
        raise DimensionError(f"batch must be {want}, got shape {x.shape}")
    if x.shape[-1] != params.input_dim:
        raise DimensionError(
            f"batch has {x.shape[-1]} columns, model expects {params.input_dim}"
        )
    # a stack's weights transpose per model and its biases broadcast over each batch
    (w0, b0), (w1, b1) = [(w.swapaxes(-1, -2), b[:, None]) if lead else (w.T, b) for w, b in params.layers]
    # bias add and ReLU run in place on the matmul outputs only: never on x or a
    # parameter view; np.maximum keeps 0.0 first, which decides -0.0 and NaN
    features = x @ w0
    features += b0
    np.maximum(0.0, features, out=features)
    logits = features @ w1
    logits += b1
    return ForwardRecord(inputs=x, features=features, logits=logits)


def backward(params: ModelParams, record: ForwardRecord, dloss_dlogits) -> np.ndarray:
    """Flat gradient of a scalar loss given its logit-gradient [B, C]; for a
    stack of K logit-gradients [K, B, C], the K flat gradients as [K, P],
    each bitwise equal to its own call. A stack of S models takes [S, B, C]
    or [S, K, B, C] and returns [S, P] or [S, K, P]."""
    g = np.asarray(dloss_dlogits, dtype=np.float64)
    lead = record.logits.shape[:-2]
    k = g.ndim - record.logits.ndim
    if k not in (0, 1) or g.shape[: len(lead)] != lead or g.shape[-2:] != record.logits.shape[-2:]:
        raise DimensionError(
            f"dloss_dlogits shape {g.shape} must be logits {record.logits.shape} "
            "or a stack of them"
        )
    features, inputs, w = record.features, record.inputs, params.layers[-1][0]
    if k and lead:
        # a K axis between the run axis and the batch: the model's arrays broadcast over it
        features, inputs, w = features[:, None], inputs[:, None], w[:, None]
    d_hidden = (g @ w) * (features > 0)
    grads = [(d_hidden.swapaxes(-1, -2) @ inputs, d_hidden.sum(axis=-2)),
             (g.swapaxes(-1, -2) @ features, g.sum(axis=-2))]
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
) -> None:
    """Heavy-ball update: v <- momentum*v + g; theta <- theta - lr*v. In place.
    A stack of S models takes [S, P] gradients and velocity; `TrainConfig`
    checks lr and momentum. A non-finite gradient (a diverging run) raises."""
    g = np.asarray(grad, dtype=np.float64)
    if g.shape != params.flat.shape:
        raise DimensionError(
            f"gradient has shape {g.shape}, model has {params.flat.shape} params"
        )
    if not np.isfinite(g).all():
        raise NumericError("gradient contains non-finite entries; step aborted")
    velocity *= momentum
    velocity += g
    params.flat -= lr * velocity
