"""A minimal dense classifier: one hidden rectifier layer, then a linear
read-out to the logits (two layers).

A model is its widths `dims = (input, hidden, classes)` and one flat
float64 vector, `ModelParams.flat`, laid out as `layer_spans()` (weight
then bias per layer); each layer's (weight, bias) is a view into it.
Forward/backward are written out analytically; gradients come back as
flat vectors in the same layout, so the conflict-projection step and the
SGD update act on whole vectors.

A stack of S models of one shape keeps a run axis first: `flat` is
[S, P], weights are [S, out, in] views, a batch is [S, B, D], and every
function here treats each model as its own; model s of a stack computes
what it computes alone, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericError


@dataclass
class ModelParams:
    """All parameters in one flat vector ([S, P] for a stack of S models);
    `layers` are (weight, bias) views into it."""

    flat: np.ndarray  # [..., P], laid out as layer_spans()
    dims: tuple[int, int, int]  # (input, hidden, classes)
    # (weight [..., out, in], bias [..., out]) per layer
    layers: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)

    def __post_init__(self):
        lead = self.flat.shape[:-1]
        views = iter(self.flat[..., start : start + size] for _, start, size in self.layer_spans())
        self.layers = [(next(views).reshape(*lead, fan_out, fan_in), next(views))
                       for fan_in, fan_out in zip(self.dims, self.dims[1:])]

    @property
    def num_params(self) -> int:
        return self.flat.shape[-1]

    def layer_spans(self) -> list[tuple[str, int, int]]:
        """Name and flat-vector extent of every parameter tensor."""
        spans = []
        offset = 0
        for i, (fan_in, fan_out) in enumerate(zip(self.dims, self.dims[1:])):
            for name, size in (("weight", fan_out * fan_in), ("bias", fan_out)):
                spans.append((f"layer{i}.{name}", offset, size))
                offset += size
        return spans

    def run(self, s: int) -> ModelParams:
        """Model s of a stack, its layers and flat vector views into the stack's."""
        return ModelParams(self.flat[s], self.dims)


def stack_params(models: list[ModelParams]) -> ModelParams:
    """Models of one shape as one stack; row s of its flat buffer is models[s].flat."""
    return ModelParams(np.stack([m.flat for m in models]), models[0].dims)


@dataclass
class ForwardRecord:
    inputs: np.ndarray  # [..., B, D], kept for the backward pass
    features: np.ndarray  # [..., B, H] hidden ReLU activations
    logits: np.ndarray  # [..., B, C]


def init_params(
    input_dim: int, num_classes: int, hidden_dim: int, rng: np.random.Generator
) -> ModelParams:
    """Fan-scaled uniform init: U(+-sqrt(6 / (fan_in + fan_out))), drawn
    weight then bias per layer straight into the flat layout."""
    dims = (input_dim, hidden_dim, num_classes)
    draws = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        draws += [rng.uniform(-bound, bound, size=fan_out * fan_in),
                  rng.uniform(-bound, bound, size=fan_out)]
    return ModelParams(np.concatenate(draws), dims)


def forward(params: ModelParams, batch) -> ForwardRecord:
    """Logits of a [B, D] batch, or of an [S, B, D] stack for a stack of S models."""
    x = np.asarray(batch, dtype=np.float64)
    lead = params.flat.shape[:-1]
    if x.ndim != len(lead) + 2 or x.shape[:-2] != lead:
        want = f"[{lead[0]}, B, D]" if lead else "2-D [B, D]"
        raise DimensionError(f"batch must be {want}, got shape {x.shape}")
    if x.shape[-1] != params.dims[0]:
        raise DimensionError(
            f"batch has {x.shape[-1]} columns, model expects {params.dims[0]}"
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
