"""The association and true-match PMFs in plain numpy, as the reference
the log-domain loss engine is checked against: a row softmax of cosine /
temperature, and each label-match row normalized to sum to one."""

import numpy as np


def softmax_pmf(src, dst, tau):
    """Association PMF in plain numpy: row softmax of cosine / tau."""
    a = src / np.linalg.norm(src, axis=1, keepdims=True)
    b = dst / np.linalg.norm(dst, axis=1, keepdims=True)
    z = a @ b.T / tau
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def true_pmf(labels):
    """True-match PMF: ``q[i, j] = [y_i = y_j] / #{k : y_k = y_i}``."""
    same = (labels[:, None] == labels[None, :]).astype(float)
    return same / same.sum(axis=1, keepdims=True)
