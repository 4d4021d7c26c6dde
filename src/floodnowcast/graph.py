"""Region graph construction: adjacency, Laplacians, Chebyshev filter basis.

Nodes are geographic units with planar centroids (meters) and a small static
feature vector. Edge weights blend two Gaussian kernels, one over centroid
distance and one over static-feature distance, with a fixed 0.9/0.1 split in
favor of physical proximity. From the weighted adjacency we derive the
combinatorial Laplacian ``L = D - A``, rescale it with its largest eigenvalue
so the spectrum lands in [-1, 1], and precompute the Chebyshev polynomial
matrices the spectral graph convolution consumes.

Every reduction over the node axis (kernel bandwidth statistics, degree sums,
the Lanczos matvecs and dot products behind ``lambda_max``, the Chebyshev
recurrence products) adds terms in ascending value order, through
:func:`floodnowcast.tensor.sorted_sum` and
:func:`floodnowcast.tensor.sorted_matmul`. That makes every derived quantity
a function of the node *multiset*, so relabeling nodes produces bit-identical
permuted matrices; graphs are reproducible artifacts, not "close enough" ones.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, UsageError
from .tensor import sorted_matmul, sorted_sum

__all__ = [
    "StaticFeatures",
    "UnitNode",
    "RegionGraph",
    "static_norm_stats",
    "pairwise_static_distance",
    "build_adjacency",
    "laplacian",
    "power_iteration_lambda_max",
    "scaled_laplacian",
    "chebyshev_basis",
    "load_nodes_csv",
    "save_adjacency_csv",
]

# numeric static fields, in the order they enter the distance vector
_NUMERIC_FIELDS = ("in_floodplain", "residential_ratio", "dist_coast", "dist_stream")


def _cmean_std(values: np.ndarray) -> tuple[float, float]:
    """Population mean/std computed with order-canonical sums."""
    n = values.size
    mean = float(sorted_sum(values)) / n
    var = float(sorted_sum((values - mean) ** 2)) / n
    return mean, float(np.sqrt(var))


@dataclass(frozen=True)
class StaticFeatures:
    """Per-unit static descriptors used for adjacency similarity."""

    in_floodplain: bool
    residential_ratio: float
    watershed_id: str
    dist_coast: float
    dist_stream: float

    def __post_init__(self):
        vals = (float(self.in_floodplain), self.residential_ratio,
                self.dist_coast, self.dist_stream)
        if not all(np.isfinite(v) for v in vals):
            raise DomainError("static features must be finite")
        if not 0.0 <= self.residential_ratio <= 1.0:
            raise DomainError(f"residential_ratio {self.residential_ratio} outside [0, 1]")
        if self.dist_coast < 0 or self.dist_stream < 0:
            raise DomainError("distances must be nonnegative")

    def numeric_vector(self) -> np.ndarray:
        return np.array([float(self.in_floodplain), self.residential_ratio,
                         self.dist_coast, self.dist_stream])


@dataclass(frozen=True)
class UnitNode:
    """One geographic unit: id, planar centroid in meters, static features."""

    id: str
    x: float
    y: float
    static: StaticFeatures

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise DomainError(f"node {self.id} has non-finite coordinates")


def static_norm_stats(nodes: Sequence[UnitNode]) -> dict[str, tuple[float, float]]:
    """Mean/std per numeric static field over the node set.

    Fields that are constant across the population (std == 0) are dropped
    from the returned dict and therefore from the distance vector.
    """
    stats: dict[str, tuple[float, float]] = {}
    mat = np.array([n.static.numeric_vector() for n in nodes])
    for j, field in enumerate(_NUMERIC_FIELDS):
        mean, std = _cmean_std(mat[:, j])
        if std > 0.0:
            stats[field] = (mean, std)
    return stats


def pairwise_static_distance(a: StaticFeatures, b: StaticFeatures,
                             norm_stats: dict[str, tuple[float, float]]) -> float:
    """Euclidean distance between two z-scored static feature vectors.

    The watershed id is categorical, so it contributes a 0/1 mismatch
    coordinate instead of a z-scored delta. Fields absent from
    ``norm_stats`` (constant over the population) are skipped.
    """
    total = 0.0
    av, bv = a.numeric_vector(), b.numeric_vector()
    for j, field in enumerate(_NUMERIC_FIELDS):
        if field not in norm_stats:
            continue
        mean, std = norm_stats[field]
        dz = (av[j] - mean) / std - (bv[j] - mean) / std
        total += dz * dz
    total += 0.0 if a.watershed_id == b.watershed_id else 1.0
    return float(np.sqrt(total))


def build_adjacency(nodes: Sequence[UnitNode], w_dist: float = 0.9,
                    w_feat: float = 0.1, epsilon: float = 1e-4) -> np.ndarray:
    """Weighted adjacency from centroid proximity and static similarity.

    For i != j::

        A_ij = w_dist * exp(-(d_ij / sigma_d)^2) + w_feat * exp(-(s_ij / sigma_s)^2)

    where ``d`` is centroid distance, ``s`` the static-feature distance, and
    each ``sigma`` is the population std of that quantity's off-diagonal
    values (data-driven kernel bandwidths). Entries below ``epsilon`` are
    zeroed to keep large graphs sparse-ish; the diagonal is zero.
    """
    n = len(nodes)
    if n < 2:
        raise UsageError(f"need at least 2 nodes, got {n}")
    if w_dist < 0 or w_feat < 0 or abs(w_dist + w_feat - 1.0) > 1e-12:
        raise UsageError(f"weights must be nonnegative and sum to 1, got {w_dist}, {w_feat}")
    ids = [node.id for node in nodes]
    if len(set(ids)) != n:
        raise UsageError("node ids must be unique")

    xy = np.array([[node.x, node.y] for node in nodes])
    d = np.hypot(xy[:, None, 0] - xy[None, :, 0], xy[:, None, 1] - xy[None, :, 1])

    stats = static_norm_stats(nodes)
    # z-score numerics, then take pairwise squared deltas plus watershed mismatch
    zcols = []
    for j, field in enumerate(_NUMERIC_FIELDS):
        if field not in stats:
            continue
        mean, std = stats[field]
        col = np.array([(node.static.numeric_vector()[j] - mean) / std for node in nodes])
        zcols.append(col)
    s2 = np.zeros((n, n))
    for col in zcols:
        dz = col[:, None] - col[None, :]
        s2 += dz * dz
    sheds = [node.static.watershed_id for node in nodes]
    mismatch = np.array([[0.0 if a == b else 1.0 for b in sheds] for a in sheds])
    s = np.sqrt(s2 + mismatch)

    off = ~np.eye(n, dtype=bool)
    _, sigma_d = _cmean_std(d[off])
    _, sigma_s = _cmean_std(s[off])
    if sigma_d == 0.0:
        warnings.warn("all pairwise centroid distances identical; using sigma_d = 1")
        sigma_d = 1.0
    if sigma_s == 0.0:
        warnings.warn("all pairwise static distances identical; using sigma_s = 1")
        sigma_s = 1.0

    a = w_dist * np.exp(-((d / sigma_d) ** 2)) + w_feat * np.exp(-((s / sigma_s) ** 2))
    np.fill_diagonal(a, 0.0)
    a[a < epsilon] = 0.0
    return a


def _validate_adjacency(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise UsageError(f"adjacency must be square, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("adjacency contains non-finite values")
    if np.max(np.abs(a - a.T), initial=0.0) > 1e-12:
        raise UsageError("adjacency must be symmetric")
    if np.any(a < 0):
        raise UsageError("adjacency must be nonnegative")
    if np.any(np.diag(a) != 0.0):
        raise UsageError("adjacency diagonal must be zero")


def laplacian(a: np.ndarray) -> np.ndarray:
    """Combinatorial Laplacian ``L = D - A`` with canonical degree sums."""
    _validate_adjacency(a)
    return np.diag(sorted_sum(a, axis=1)) - a


def _matvec_sorted(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    # a named function so the benchmark's tracer can count lambda_max matvecs
    return sorted_sum(m * v[None, :], axis=1)


def _start_vector(lap: np.ndarray) -> np.ndarray:
    """Deterministic start for the Lanczos iteration.

    Candidates are functions of the matrix that permute with its rows, so the
    whole iteration (and thus lambda_max) is invariant under node relabeling.
    A candidate must have a nonzero image under L (the degree vector, for
    example, is null on any component where degrees are equal). A fixed ramp
    is the last resort for graphs whose symmetry kills every equivariant
    candidate; on such graphs relabel-invariance of lambda_max is only
    guaranteed for permutations that leave the matrix bit-identical.
    """
    n = lap.shape[0]
    scale = float(np.max(np.abs(lap), initial=0.0))
    candidates = [np.diag(lap).copy(),
                  sorted_sum(lap * lap, axis=1),
                  np.linspace(1.0, 2.0, n)]
    for cand in candidates:
        if cand.max() - cand.min() <= 0.0:
            continue
        image = _matvec_sorted(lap, cand)
        img_norm = np.sqrt(sorted_sum(image * image))
        if img_norm > 1e-12 * scale * np.sqrt(sorted_sum(cand * cand)):
            return cand
    return candidates[-1]


def _project_out(basis: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``w`` minus its components along the orthonormal rows of ``basis``.

    The correction sums over the basis index in row order for every node (an
    outer ``np.sum``; a BLAS gemv may order output positions differently), so
    it permutes exactly with the nodes.
    """
    coef = sorted_sum(basis * w[None, :], axis=1)
    return w - np.sum(coef[:, None] * basis, axis=0), coef


def power_iteration_lambda_max(lap: np.ndarray, tol: float = 1e-9) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by Lanczos iteration.

    Full reorthogonalisation (classical Gram-Schmidt, two passes) keeps the
    Krylov basis orthonormal; the estimate is the top Ritz value ``theta`` of
    the tridiagonal matrix. Stops when the Ritz residual ``|beta_j s_j|``
    (``||L y - theta y||``, which bounds the eigenvalue error) drops to
    ``tol * theta`` or the basis spans an invariant subspace. Every step is a
    sorted sum, so the result is bitwise invariant under node relabeling. At
    most ``n`` steps; ending there unconverged warns.
    """
    n = lap.shape[0]
    if n == 0:
        raise UsageError("empty matrix")
    v = _start_vector(lap)
    nrm = np.sqrt(sorted_sum(v * v))
    if nrm == 0.0:
        return 0.0
    basis = np.empty((n, n))
    basis[0] = v / nrm
    alphas: list[float] = []
    betas: list[float] = []
    for j in range(n):
        w = _matvec_sorted(lap, basis[j])
        w, coef = _project_out(basis[:j + 1], w)
        alphas.append(float(coef[j]))
        w, _ = _project_out(basis[:j + 1], w)  # twice is enough for orthogonality
        beta = float(np.sqrt(sorted_sum(w * w)))
        tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        ritz, vecs = np.linalg.eigh(tri)
        theta = float(ritz[-1])
        # beta == 0: the basis spans an invariant subspace, theta is exact
        if beta <= 1e-300 or abs(beta * vecs[-1, -1]) <= tol * abs(theta):
            return theta
        if j + 1 < n:
            basis[j + 1] = w / beta
            betas.append(beta)
    warnings.warn(f"Lanczos did not reach tol={tol} in {n} iterations")
    return theta


def scaled_laplacian(lap: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, float]:
    """Rescale ``L`` to ``(2 / lambda_max) L - I`` with spectrum in [-1, 1].

    ``lambda_max`` comes from Lanczos iteration; the estimate is inflated by
    one tolerance unit so a slight underestimate cannot push the top of the
    spectrum past +1. An (almost) edgeless graph has ``lambda_max ~ 0``; that
    degenerate case falls back to ``lambda_max = 2``, i.e. ``L_tilde = L - I``.
    """
    if np.max(np.abs(lap - lap.T), initial=0.0) > 1e-12:
        raise UsageError("laplacian must be symmetric")
    n = lap.shape[0]
    lam = power_iteration_lambda_max(lap, tol=tol)
    if lam < 1e-12:
        warnings.warn("laplacian is (numerically) zero; using lambda_max = 2")
        lam = 2.0
    else:
        lam = lam * (1.0 + tol)
    scaled = (2.0 / lam) * lap - np.eye(n)
    return scaled, float(lam)


def chebyshev_basis(scaled: np.ndarray, k: int) -> list[np.ndarray]:
    """Chebyshev matrices ``T_0 = I, T_1 = L~, T_j = 2 L~ T_{j-1} - T_{j-2}``."""
    if k < 1:
        raise UsageError(f"K must be >= 1, got {k}")
    n = scaled.shape[0]
    basis = [np.eye(n)]
    if k > 1:
        basis.append(scaled.copy())
    for _ in range(2, k):
        basis.append(2.0 * sorted_matmul(scaled, basis[-1]) - basis[-2])
    return basis


@dataclass(frozen=True)
class RegionGraph:
    """Immutable bundle of a node set and its derived spectral operators."""

    nodes: tuple[UnitNode, ...]
    adjacency: np.ndarray
    degree: np.ndarray             # diagonal entries of D
    laplacian: np.ndarray
    scaled_laplacian: np.ndarray
    lambda_max: float
    cheb_basis: tuple[np.ndarray, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def node_ids(self) -> list[str]:
        return [n.id for n in self.nodes]

    @property
    def order(self) -> int:
        return len(self.cheb_basis)

    @classmethod
    def from_adjacency(cls, nodes: Sequence[UnitNode], adjacency: np.ndarray,
                       k: int = 3) -> "RegionGraph":
        if adjacency.shape != (len(nodes), len(nodes)):
            raise UsageError(f"adjacency shape {adjacency.shape} does not match {len(nodes)} nodes")
        lap = laplacian(adjacency)
        scaled, lam = scaled_laplacian(lap)
        basis = chebyshev_basis(scaled, k)
        arrays = [adjacency, np.diag(lap).copy(), lap, scaled, *basis]
        for arr in arrays:
            arr.setflags(write=False)
        return cls(nodes=tuple(nodes), adjacency=adjacency, degree=arrays[1],
                   laplacian=lap, scaled_laplacian=scaled, lambda_max=lam,
                   cheb_basis=tuple(basis))

    @classmethod
    def build(cls, nodes: Sequence[UnitNode], k: int = 3, w_dist: float = 0.9,
              w_feat: float = 0.1, epsilon: float = 1e-4) -> "RegionGraph":
        return cls.from_adjacency(nodes, build_adjacency(nodes, w_dist, w_feat, epsilon), k=k)

    @classmethod
    def edgeless(cls, nodes: Sequence[UnitNode], k: int = 3) -> "RegionGraph":
        """Graph-free ablation: zero adjacency, so ``L~ = -I`` and T_j = (-1)^j I."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return cls.from_adjacency(nodes, np.zeros((len(nodes), len(nodes))), k=k)


# -- CSV interfaces ----------------------------------------------------------

NODES_HEADER = ["id", "x", "y", "in_floodplain", "residential_ratio",
                "watershed_id", "dist_coast", "dist_stream"]


def load_nodes_csv(path: str | Path) -> list[UnitNode]:
    """Read the node table (`id,x,y,in_floodplain,...` header, see NODES_HEADER)."""
    nodes = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != NODES_HEADER:
            raise UsageError(f"unexpected nodes header {reader.fieldnames} in {path}")
        for row in reader:
            static = StaticFeatures(
                in_floodplain=bool(int(row["in_floodplain"])),
                residential_ratio=float(row["residential_ratio"]),
                watershed_id=row["watershed_id"],
                dist_coast=float(row["dist_coast"]),
                dist_stream=float(row["dist_stream"]),
            )
            nodes.append(UnitNode(id=row["id"], x=float(row["x"]), y=float(row["y"]),
                                  static=static))
    if not nodes:
        raise UsageError(f"no nodes in {path}")
    return nodes


def save_adjacency_csv(ids: Sequence[str], adjacency: np.ndarray, path: str | Path) -> None:
    """Write nonzero upper-triangle edges as `id_i,id_j,weight`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id_i", "id_j", "weight"])
        n = len(ids)
        for i in range(n):
            for j in range(i + 1, n):
                w = adjacency[i, j]
                if w != 0.0:
                    writer.writerow([ids[i], ids[j], repr(float(w))])
