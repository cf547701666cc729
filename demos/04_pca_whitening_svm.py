#!/usr/bin/env python3
"""Dimensionality reduction and the margin classifier.

Randomized PCA finds the dominant subspace without a full SVD,
whitening scales each retained component to unit variance, and the
SMO-trained RBF SVM draws the boundary.  Everything is seeded.
"""

import numpy as np

from livecheck.svm import SvmParams, decision_scores, train_smo
from livecheck.transform import Standardizer, fit_pca_randomized, project

rng = np.random.default_rng(13)

# 300 samples in 40 dimensions, but only 6 directions carry signal.
hidden = rng.standard_normal((300, 6)) * np.array([9.0, 7.0, 5.5, 4.0, 3.0, 2.0])
mixing = rng.standard_normal((6, 40))
X = hidden @ mixing + 0.1 * rng.standard_normal((300, 40))

std = Standardizer.fit(X)
Xs = std.apply(X)

pca = fit_pca_randomized(Xs, 6, seed=99, whiten=True)
print("explained variances:", np.round(pca.component_variances, 2))
Z = project(pca, Xs)
print("projected:", Z.shape, " per-component variance:", np.round(Z.var(axis=0), 4))

# Two interleaved half-moons, the classic non-linear toy.
angles = rng.uniform(0, np.pi, 120)
upper = np.c_[np.cos(angles), np.sin(angles)] + 0.12 * rng.standard_normal((120, 2))
lower = np.c_[1 - np.cos(angles), 0.35 - np.sin(angles)] + 0.12 * rng.standard_normal((120, 2))
pts = np.vstack([upper, lower])
y = np.concatenate([np.ones(120), -np.ones(120)])

params = SvmParams(C=10.0, gamma=2.0)
model, diag = train_smo(pts, y, params, collect_diagnostics=True)
scores = decision_scores(model, pts)
accuracy = np.mean(np.sign(scores) == y)
print(f"moons: {model.support_vectors.shape[0]} support vectors of {len(y)} points")
print(f"training accuracy {accuracy:.1%} after {diag.sweeps} sweep(s) of {len(y)} pair steps")

# The dual objective is what SMO maximizes, sampled every n steps and at
# the end; it should never decrease.
obj = diag.dual_objectives
print("dual objective head:", np.round(obj[:3], 3), "... tail:", np.round(obj[-2:], 3))
print("monotone:", bool(np.all(np.diff(obj) >= -1e-9)))
