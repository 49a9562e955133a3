"""Digits-based survival benchmark with surrogate features.

Digit classes are grouped into survival clusters; each cluster draws an
exponential event time from its own rate, and a single global censoring
time truncates the upper tail. Surrogate features replace the digit
images with noisy one-hot label encodings clipped to [0, 1], so the demo
needs no image files.

The model trains with a Bernoulli (binary cross-entropy) decoder, the
natural choice for near-binary features.
"""

import numpy as np

from survmix.datagen import (SurvMnistConfig, gen_survmnist, preprocess,
                             train_test_split)
from survmix.metrics import (clustering_accuracy, concordance_index,
                             kaplan_meier)
from survmix.model import TrainConfig, fit, predict

data = gen_survmnist(SurvMnistConfig(num_samples=2000, num_clusters=5, seed=0))
print(f"digit -> cluster map: {data.diagnostics['digit_assignment']}")
print(f"censored fraction:    {1.0 - data.events.mean():.1%}")

train, test = train_test_split(data, test_fraction=0.3, seed=0)
train, stats = preprocess(train)
test, _ = preprocess(test, stats)

config = TrainConfig(
    latent_dim=4, num_clusters=5, weibull_shape=1.0,
    epochs=150, learning_rate=1e-3, recon_loss="bce",
    enc_hidden=(32,), dec_hidden=(32,), seed=0,
)
params, _ = fit(train, config)
pred = predict(params, test.features, test.times, test.events)

print(f"test ACC: {clustering_accuracy(test.labels, pred.labels):.3f}")
print(f"test CI:  "
      f"{concordance_index(test.times, test.events, -pred.median_time):.3f}")

print("\nKaplan-Meier median survival per predicted cluster:")
for c in range(5):
    mask = pred.labels == c
    if not np.any(mask):
        print(f"  cluster {c}: (empty)")
        continue
    times, surv = kaplan_meier(test.times[mask], test.events[mask])
    below = np.nonzero(surv <= 0.5)[0]
    at = f"{times[below[0]]:.3f}" if len(below) else ">max"
    print(f"  cluster {c}: n={int(mask.sum()):3d}  median t={at}")
