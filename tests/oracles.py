"""Independent numeric oracles shared across the suite.

These stay deliberately dumb (elementwise central differences, explicit
loops) so they cannot share a bug with the analytic code they check.
"""

from __future__ import annotations

import numpy as np

from ltreflect import conflict, data, losses, nn, reflect, trainer

_ZERO_NORM = 1e-12


def cos_angle(a, b) -> float:
    """Cosine of the angle between two vectors; 0 when either is near zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < _ZERO_NORM or nb < _ZERO_NORM:
        return 0.0
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def baseline_run(cfg, train, test, split):
    """Plain CE/BSCE loop sharing the seed streams; the reflective trainer
    with every component off must reproduce this bit for bit."""
    init_rng, shuffle_rng, augment_rng = trainer.rng_streams(cfg.seed)
    params = nn.init_params(train.dim, train.num_classes, cfg.hidden_dim, init_rng)
    velocity = np.zeros(params.num_params)
    history = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr * (1.0 - epoch / cfg.epochs)
        order = shuffle_rng.permutation(train.num_samples)
        loss_sum, batches = 0.0, 0
        for start in range(0, train.num_samples, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x = data.augment(train.features[idx], cfg.sigma_aug, augment_rng)
            y = train.labels[idx]
            rec = nn.forward(params, x)
            if cfg.ltr_loss == "bsce":
                out = losses.bsce_loss(rec.logits, y, train.class_counts)
            else:
                out = losses.ce_loss(rec.logits, y)
            g = nn.backward(params, rec, out.dlogits)
            nn.sgd_step(params, g, lr, cfg.momentum, velocity)
            loss_sum += out.value
            batches += 1
        history.append((loss_sum / batches, trainer.evaluate(params, test, split)[0]))
    return history


def serial_run(cfg, train, test, split):
    """The trainer's epoch loop written out one call per loss: CE/BSCE,
    review KL (`kl_distill`) on the rows the previous epoch got right,
    soft CE with its own log-softmax, and one backward pass per
    gradient. The class medians are taken every epoch, over each class's
    rows gathered in arrival order. Returns (params, velocity, per-epoch
    EpochMetrics, last soft labels, (epoch, per-class KL) rows from epoch 1
    on by `per_class_kl`); the trainer must match all of it bit for bit."""
    init_rng, shuffle_rng, augment_rng = trainer.rng_streams(cfg.seed)
    params = nn.init_params(train.dim, train.num_classes, cfg.hidden_dim, init_rng)
    velocity = np.zeros(params.num_params)
    spans = params.layer_spans()
    starts = np.array([start for _, start, _ in spans])
    cache = soft_labels = prev_logits = None
    history, kl_rows = [], []
    for epoch in range(cfg.epochs):
        lr = cfg.lr * (1.0 - epoch / cfg.epochs)
        order = shuffle_rng.permutation(train.num_samples)
        next_cache = reflect.empty_cache(train.num_samples, train.num_classes)
        rows_by_class = [[] for _ in range(train.num_classes)]
        sums = {"ltr": 0.0, "kr": 0.0, "ks": 0.0, "conflict": 0.0}
        layer_hits = np.zeros(len(spans))
        batches = aux_batches = 0
        for start in range(0, train.num_samples, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x = data.augment(train.features[idx], cfg.sigma_aug, augment_rng)
            y = train.labels[idx]
            rec = nn.forward(params, x)
            if cfg.ltr_loss == "bsce":
                ltr = losses.bsce_loss(rec.logits, y, train.class_counts)
            else:
                ltr = losses.ce_loss(rec.logits, y)
            sums["ltr"] += ltr.value
            aux = np.zeros_like(rec.logits)
            has_aux = False
            if cache is not None and cfg.use_kr:
                mask = cache.correct_mask[idx]
                if mask.any():
                    kr = losses.kl_distill(cache.prev_logits[idx[mask]], rec.logits[mask], cfg.tau)
                    sums["kr"] += kr.value
                    aux[mask] += kr.dlogits
                has_aux = True
            if cfg.use_ks and soft_labels is not None:
                ks = losses.soft_ce(rec.logits, soft_labels.y_hat[y])
                sums["ks"] += ks.value
                aux += ks.dlogits
                has_aux = True
            g_ltr = nn.backward(params, rec, ltr.dlogits)
            if has_aux:
                g_aux = nn.backward(params, rec, aux)
                flags = conflict.conflict_stats(g_ltr, g_aux, starts)
                layer_hits += flags
                sums["conflict"] += float(flags.mean())
                aux_batches += 1
                if cfg.use_kc:
                    g_ltr, _ = conflict.project_if_conflict(g_ltr, g_aux)
                else:
                    g_ltr = g_ltr + g_aux
            nn.sgd_step(params, g_ltr, lr, cfg.momentum, velocity)
            reflect.cache_update(next_cache, idx, rec.logits, y)
            for label, row in zip(y, rec.features):
                rows_by_class[label].append(row)
            batches += 1
        cache = next_cache
        centers = np.array([np.median(rows, axis=0) for rows in rows_by_class])
        soft_labels = reflect.build_soft_labels(centers, cfg.alpha)
        accs, logits = trainer.evaluate(params, test, split)
        if prev_logits is not None:
            kl_rows.append((epoch, per_class_kl(prev_logits, logits, test.labels, test.num_classes)))
        prev_logits = logits
        history.append(
            trainer.EpochMetrics(
                epoch=epoch,
                loss_ltr=sums["ltr"] / batches,
                loss_kr=sums["kr"] / batches,
                loss_ks=sums["ks"] / batches,
                conflict_fraction=sums["conflict"] / aux_batches if aux_batches else 0.0,
                layer_conflict_rates={
                    name: float(hits / aux_batches)
                    for (name, _, _), hits in zip(spans, layer_hits)
                    if aux_batches
                },
                **accs,
            )
        )
    return params, velocity, history, soft_labels, kl_rows


def per_class_kl(prev_logits, cur_logits, labels, num_classes):
    """The per-class adjacent-epoch KL as one `kl_distill` call on each
    class's rows."""
    return np.array(
        [losses.kl_distill(prev_logits[labels == c], cur_logits[labels == c]).value
         for c in range(num_classes)]
    )


def mse_logits(prev_logits, cur_logits) -> losses.LossOutput:
    """Half squared distance between logit rows, batch mean; gradient to cur
    only. The high-temperature limit of kl_distill's gradient direction."""
    prev = np.asarray(prev_logits, dtype=np.float64)
    cur = np.asarray(cur_logits, dtype=np.float64)
    diff = cur - prev
    batch = diff.shape[0]
    return losses.LossOutput(0.5 * float((diff * diff).sum(axis=1).sum() / batch), diff / batch)


def fd_grad_logits(loss_value_fn, logits, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar loss w.r.t. a logits array."""
    base = np.asarray(logits, dtype=np.float64)
    grad = np.zeros_like(base)
    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            plus = base.copy()
            minus = base.copy()
            plus[i, j] += step
            minus[i, j] -= step
            grad[i, j] = (loss_value_fn(plus) - loss_value_fn(minus)) / (2 * step)
    return grad


def fd_grad_params(params, loss_of_model, step: float = 1e-5) -> np.ndarray:
    """Central finite differences through the flat model parameters."""
    theta = params.flat.copy()
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        params.flat[i] += step
        up = loss_of_model(params)
        params.flat[i] -= 2 * step
        down = loss_of_model(params)
        params.flat[i] = theta[i]
        grad[i] = (up - down) / (2 * step)
    return grad


def max_rel_err(analytic, numeric, floor: float = 1e-6) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))
