"""Independent reference for the floodnowcast model, in plain numpy.

Written from the documented equations (the ``floodnowcast.graph`` and
``floodnowcast.model`` docstrings, the weights and CSV formats in the
README), not from the implementation: this module imports nothing from
``floodnowcast``. The benchmark compares the program's outputs with it.

Graph (``graph`` docstring): for i != j

    A_ij = 0.9 exp(-(d_ij / sigma_d)^2) + 0.1 exp(-(s_ij / sigma_s)^2)

with d the centroid distance, s the Euclidean distance between z-scored
numeric static features plus a 0/1 watershed-mismatch coordinate, each sigma
the population std of the off-diagonal values, entries below 1e-4 zeroed.
``L = D - A``, ``L~ = (2 / lambda_max) L - I``, ``T_0 = I``, ``T_1 = L~``,
``T_k = 2 L~ T_{k-1} - T_{k-2}``.

Model (``model`` docstring), per block on a (B, N, C, T) window:

    E = softmax_rows(V_e ⊙ sigmoid((X^T u1) U2^T (u3 X) + B_e))      (T x T)
    X <- X E^T along time
    S = softmax_rows(P_s ⊙ sigmoid((X w1) W2 (w3 X)^T + B_s))       (N x N)
    Y[:, :, t] = sum_k (T_k ⊙ S) X[:, :, t] theta_k
    X <- relu(conv_same(relu(Y), phi))

then ``softmax(flatten(X) fc_w + fc_b)`` per node over the three classes.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

NUMERIC_FIELDS = ("in_floodplain", "residential_ratio", "dist_coast", "dist_stream")


# -- inputs ----------------------------------------------------------------------


def read_nodes(path: str | Path) -> tuple[list[str], np.ndarray, np.ndarray, list[str]]:
    """Node ids, (N, 2) centroids, (N, 4) numeric statics, watershed ids."""
    ids, xy, num, sheds = [], [], [], []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            ids.append(row["id"])
            xy.append([float(row["x"]), float(row["y"])])
            num.append([float(int(row["in_floodplain"]))]
                       + [float(row[f]) for f in NUMERIC_FIELDS[1:]])
            sheds.append(row["watershed_id"])
    return ids, np.array(xy), np.array(num), sheds


def read_weights(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and named float64 arrays of a weights file.

    Raises ``ValueError`` when the payload does not match the header's
    sha256 or its shapes.
    """
    raw = Path(path).read_bytes()
    line, _, payload = raw.partition(b"\n")
    header = json.loads(line)
    if hashlib.sha256(payload).hexdigest() != header["sha256"]:
        raise ValueError(f"{path}: payload sha256 does not match the header")
    arrays, offset = {}, 0
    for spec in header["params"]:
        shape = tuple(spec["shape"])
        size = int(np.prod(shape)) * 8
        if offset + size > len(payload):
            raise ValueError(f"{path}: payload too short for {spec['name']}")
        arrays[spec["name"]] = np.frombuffer(payload[offset:offset + size],
                                             dtype="<f8").reshape(shape).copy()
        offset += size
    if offset != len(payload):
        raise ValueError(f"{path}: {len(payload) - offset} trailing payload bytes")
    return header, arrays


# -- graph -----------------------------------------------------------------------


def adjacency(xy: np.ndarray, numeric: np.ndarray, sheds: list[str],
              w_dist: float = 0.9, w_feat: float = 0.1, epsilon: float = 1e-4
              ) -> np.ndarray:
    n = xy.shape[0]
    d = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=-1))
    std = numeric.std(axis=0)
    keep = std > 0
    z = (numeric[:, keep] - numeric[:, keep].mean(axis=0)) / std[keep]
    shed = np.array(sheds)
    s2 = ((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=-1)
    s = np.sqrt(s2 + (shed[:, None] != shed[None, :]))
    off = ~np.eye(n, dtype=bool)
    sigma_d = d[off].std() or 1.0
    sigma_s = s[off].std() or 1.0
    a = w_dist * np.exp(-(d / sigma_d) ** 2) + w_feat * np.exp(-(s / sigma_s) ** 2)
    np.fill_diagonal(a, 0.0)
    a[a < epsilon] = 0.0
    return a


def laplacian(a: np.ndarray) -> np.ndarray:
    return np.diag(a.sum(axis=1)) - a


def chebyshev(lap: np.ndarray, k: int) -> list[np.ndarray]:
    """Chebyshev basis of the scaled Laplacian, lambda_max by eigendecomposition."""
    n = lap.shape[0]
    lam = float(np.linalg.eigvalsh(lap)[-1])
    scaled = (2.0 / lam) * lap - np.eye(n) if lam > 1e-12 else lap - np.eye(n)
    basis = [np.eye(n), scaled][:k]
    while len(basis) < k:
        basis.append(2.0 * scaled @ basis[-1] - basis[-2])
    return basis


# -- model -----------------------------------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _conv_same(x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """out[..., o, t] = sum_{w,i} phi[w, i, o] x[..., i, t + w - W//2], zero padded."""
    width, tlen = phi.shape[0], x.shape[-1]
    pad = width // 2
    xp = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(pad, pad)])
    return sum(np.einsum("...it,io->...ot", xp[..., w:w + tlen], phi[w], optimize=True)
               for w in range(width))


def logits(x: np.ndarray, weights: dict[str, np.ndarray], basis: list[np.ndarray],
           n_blocks: int) -> np.ndarray:
    """Eval-mode logits (B, N, 3) for windows ``x`` of shape (B, N, C, T)."""
    h = x
    for i in range(n_blocks):
        p = {k.split(".", 1)[1]: v for k, v in weights.items()
             if k.startswith(f"block{i}.")}
        # temporal attention: (X^T u1) U2^T is (B, T, N), u3 X is (B, N, T)
        lhs = np.einsum("bnct,n,mc->btm", h, p["u1"], p["u2"], optimize=True)
        rhs = np.einsum("c,bnct->bnt", p["u3"], h, optimize=True)
        e = _softmax(p["v_e"] * _sigmoid(lhs @ rhs + p["b_e"]))
        h = np.einsum("bncj,btj->bnct", h, e, optimize=True)
        # spatial attention: (X w1) W2 is (B, N, T), w3 X is (B, N, T)
        lhs = np.einsum("bnct,t,cs->bns", h, p["w1"], p["w2"], optimize=True)
        rhs = np.einsum("c,bnct->bnt", p["w3"], h, optimize=True)
        s = _softmax(p["p_s"] * _sigmoid(lhs @ rhs.transpose(0, 2, 1) + p["b_s"]))
        # attention-gated Chebyshev convolution, one filter per basis matrix
        b, n, c, t = h.shape
        y = sum(np.einsum("bmct,co->bmot",
                          ((t_k[None] * s) @ h.reshape(b, n, c * t)).reshape(b, n, c, t),
                          p[f"theta{k}"], optimize=True)
                for k, t_k in enumerate(basis))
        h = np.maximum(_conv_same(np.maximum(y, 0.0), p["phi"]), 0.0)
    flat = h.reshape(h.shape[0], h.shape[1], -1)
    return flat @ weights["fc.weight"] + weights["fc.bias"]


def probabilities(x, weights, basis, n_blocks) -> np.ndarray:
    return _softmax(logits(x, weights, basis, n_blocks))


def mean_nll(x, labels, weights, basis, n_blocks) -> float:
    """Unweighted mean over windows and nodes of -log p(label)."""
    z = logits(x, weights, basis, n_blocks)
    z = z - z.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return float(-np.take_along_axis(logp, labels[..., None], axis=-1).mean())
