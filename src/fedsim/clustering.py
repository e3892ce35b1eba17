"""Client similarity, spectral embedding, and k-means grouping.

Clients are compared through their class mixes and sample counts; the
resulting similarity graph is cut with a normalized-Laplacian spectral
embedding followed by seeded k-means. Eigenpairs come from LAPACK's
symmetric solver (`np.linalg.eigh`), with a sign convention that makes
them deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import integer, whole_numbers
from .errors import NumericError, ParameterError

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 100


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence between two probability vectors, in nats.

    JS(p, q) = KL(p || m)/2 + KL(q || m)/2 with m the midpoint. Zero
    probabilities contribute nothing (0 * log 0 = 0), so no smoothing is
    needed. The result lies in [0, ln 2]: rounding can leave the sum a few
    ulps below 0 for nearly equal vectors, so it is clamped at 0.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ParameterError("p and q must be vectors of equal length")
    _check_mixes(np.stack([p, q]))
    m = 0.5 * (p + q)

    def half_kl(a):
        mask = a > 0
        return 0.5 * float(np.sum(a[mask] * np.log(a[mask] / m[mask])))

    return max(0.0, half_kl(p) + half_kl(q))


def _check_mixes(props: np.ndarray) -> None:
    """ParameterError unless every row of props is finite, non-negative and sums to 1 within 1e-9."""
    if not np.all(np.isfinite(props)):
        raise ParameterError("probabilities must be finite")
    if np.any(props < 0):
        raise ParameterError("probabilities must be non-negative")
    if np.any(np.abs(props.sum(axis=1) - 1.0) > 1e-9):
        raise ParameterError("probabilities must each sum to 1")


def _half_kl_rows(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """KL(a_r || m_r) / 2 for every row r of m; `a` may be one broadcast row.

    Zero entries of `a` contribute nothing (their ratio is taken as 1), as
    in `js_divergence`.
    """
    a = np.broadcast_to(a, m.shape)
    terms = np.divide(a, m, out=np.ones_like(m), where=a > 0)
    np.log(terms, out=terms)
    terms *= a
    return 0.5 * np.sum(terms, axis=1)


def _pair_divergences(props: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """JS divergence of each pair (props[rows[i]], props[cols[i]]), clamped at 0.

    The pair-sized temporaries are freed on return, before the (n, n)
    similarity matrix is built, which keeps the peak memory down.
    """
    p, q = np.take(props, rows, axis=0), np.take(props, cols, axis=0)
    m = 0.5 * (p + q)
    return np.maximum(_half_kl_rows(p, m) + _half_kl_rows(q, m), 0.0)


@dataclass
class SimilarityMatrix:
    """Pairwise client similarity; symmetric, unit diagonal, entries in (0, 1]."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.float64)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] < 1:
            raise ParameterError("similarity matrix must be square and non-empty")
        if not np.all(np.isfinite(e)):
            raise ParameterError("similarity entries must be finite")
        if float(np.max(np.abs(e - e.T))) > 1e-12:
            raise ParameterError("similarity matrix must be symmetric")
        if np.any(np.diagonal(e) != 1.0):
            raise ParameterError("similarity diagonal must be exactly 1")
        if np.any(e <= 0) or np.any(e > 1):
            raise ParameterError("similarity entries must lie in (0, 1]")
        self.entries = e

    @property
    def n_clients(self) -> int:
        return self.entries.shape[0]


def similarity_matrix(proportions, counts, lambda1: float = 1.0, lambda2: float = 1.0) -> SimilarityMatrix:
    """Similarity exp(-l1 * JS(p_i, p_j) - l2 * |n_i - n_j| / (n_i + n_j)).

    Row i of the (n, C) `proportions` is client i's class mix p_i, and
    entry i of the (n,) `counts` its sample count n_i. The first exponent
    term penalizes diverging class mixes, the second penalizes mismatched
    sample counts; lambda1/lambda2 weight the two. Every row must be finite,
    non-negative and sum to 1 within 1e-9, and every count finite and
    >= 1, else ParameterError. The diagonal is exactly 1 (both terms vanish
    for i = j). A pair whose similarity underflows to 0 (an exponent below
    about -745, so a large lambda) raises NumericError. All pairs i < j
    are computed at once and mirrored into the lower triangle, so
    temporaries are O(n^2 * C / 2); `js_divergence` is the scalar
    reference for each entry.
    """
    if not (0 <= lambda1 < math.inf and 0 <= lambda2 < math.inf):
        raise ParameterError("lambda1 and lambda2 must be finite and >= 0")
    try:
        props = np.asarray(proportions, dtype=np.float64)
    except ValueError as exc:
        raise ParameterError("class distributions must have equal length") from exc
    counts = np.asarray(counts, dtype=np.float64)
    if props.ndim != 2 or len(props) < 1:
        raise ParameterError("proportions must be a non-empty (n_clients, C) array")
    n = len(props)
    if counts.shape != (n,):
        raise ParameterError(f"{counts.size} sample counts for {n} class distributions")
    _check_mixes(props)
    if not np.all(np.isfinite(counts) & (counts >= 1)):
        raise ParameterError("counts must be finite and >= 1")
    rows, cols = np.triu_indices(n, k=1)
    div = _pair_divergences(props, rows, cols)
    size_gap = np.abs(counts[rows] - counts[cols]) / (counts[rows] + counts[cols])
    pairs = np.exp(-lambda1 * div - lambda2 * size_gap)
    underflowed = np.count_nonzero(pairs == 0.0)
    if underflowed:
        raise NumericError(
            f"similarity underflows to 0 in {underflowed} of {len(pairs)} client pairs"
            f" at lambda1={lambda1:g}, lambda2={lambda2:g}"
        )
    s = np.ones((n, n))
    s[rows, cols] = s[cols, rows] = pairs
    return SimilarityMatrix(s)


def normalized_laplacian(similarity: SimilarityMatrix) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^{-1/2} S D^{-1/2}.

    D is the diagonal of row sums, each at least 1 (the unit diagonal).
    Eigenvalues lie in [0, 2], and 0 is always present because similarity
    entries are strictly positive.
    """
    a = similarity.entries
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    lap = np.eye(len(a)) - inv_sqrt[:, None] * a * inv_sqrt[None, :]
    return 0.5 * (lap + lap.T)


def symmetric_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by LAPACK (`np.linalg.eigh`).

    Returns eigenvalues in ascending order and the matching orthonormal
    eigenvectors as columns. Each eigenvector is sign-normalized so its
    first component larger than 1e-12 in magnitude is positive, making the
    output deterministic. A LAPACK convergence failure raises NumericError.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ParameterError("matrix entries must be finite")
    n = a.shape[0]
    if n and float(np.max(np.abs(a - a.T))) > 1e-10:
        raise ParameterError("matrix must be symmetric")
    try:
        values, vecs = np.linalg.eigh(0.5 * (a + a.T))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigendecomposition failed: {exc}") from exc
    significant = np.abs(vecs) > 1e-12
    lead = np.argmax(significant, axis=0)
    flip = significant.any(axis=0) & (vecs[lead, np.arange(n)] < 0)
    vecs[:, flip] = -vecs[:, flip]
    return values, vecs


@dataclass
class ClusterAssignment:
    """Cluster label per client; every cluster index in [0, M) is occupied.

    Labels are stored as int64; labels that are not whole numbers (0.7,
    nan, inf) raise ParameterError rather than being truncated, as does an
    n_clusters that is not an integer (data.integer: 2.0 is not one).
    """

    labels: np.ndarray
    n_clusters: int

    def __post_init__(self):
        self.labels = whole_numbers(self.labels, "labels")
        if self.labels.ndim != 1 or len(self.labels) < 1:
            raise ParameterError("labels must be a non-empty vector")
        integer(self.n_clusters, "n_clusters")
        if self.labels.min() < 0 or self.labels.max() >= self.n_clusters:
            raise ParameterError("labels must lie in [0, n_clusters)")
        # bincount, not np.unique: unique's first call imports numpy.ma (about 8 ms)
        if self.cluster_sizes().min() == 0:
            raise ParameterError("every cluster must have at least one member")

    @classmethod
    def single(cls, n_clients: int) -> "ClusterAssignment":
        """All n_clients in one cluster; n_clients must be an integer >= 1 (data.integer's rule)."""
        return cls(np.zeros(integer(n_clients, "n_clients"), dtype=np.int64), 1)

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_clusters)


def _plusplus_centers(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    chosen: list[int] = [int(rng.integers(n))]
    centers[0] = points[chosen[0]]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            # all residual mass sits on already-chosen points (duplicates);
            # fall back to the lowest unchosen index
            pick = min(set(range(n)) - set(chosen))
        chosen.append(pick)
        centers[j] = points[pick]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations of R restarts in lockstep, from (R, k, d) `centers`.

    `centers` is updated in place. A restart drops out once its labels stop
    changing. Returns the (R, n) labels and the R inertias; each restart
    matches a Lloyd run of its own bit for bit.
    """
    n_restarts, k, _ = centers.shape
    labels = np.empty((n_restarts, len(points)), dtype=np.intp)
    active = np.arange(n_restarts)
    tiled = np.repeat(points[:, None, :], k, axis=1)  # (n, k, d), so a subtraction spans k * d values
    for step in range(KMEANS_MAX_ITER):
        d2 = ((tiled - centers[active, None, :, :]) ** 2).sum(axis=-1)
        new_labels = np.argmin(d2, axis=-1)  # ties resolve to the lowest center index
        if step:
            moving = np.any(new_labels != labels[active], axis=1)
            active, new_labels = active[moving], new_labels[moving]
            if not len(active):
                break
        labels[active] = new_labels
        centers[active] = _cluster_means(points, new_labels, centers[active])
    inertia = ((points - centers[np.arange(n_restarts)[:, None], labels]) ** 2).sum(axis=(1, 2))
    return labels, inertia


def _cluster_means(points: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each restart's cluster means, `points[members].mean(axis=0)` bit for bit.

    `labels` is (A, n) and `centers` (A, k, d); an empty cluster keeps its
    center. numpy adds the rows of a mean in index order, as `bincount`
    does, except for a single column, which it sums pairwise; so for 1-D
    points each mean is taken with `mean` itself.
    """
    n_active, k, d = centers.shape
    bins = labels + k * np.arange(n_active)[:, None]
    counts = np.bincount(bins.ravel(), minlength=n_active * k).reshape(n_active, k)
    if d == 1:
        for a, j in zip(*np.nonzero(counts)):
            centers[a, j] = points[labels[a] == j].mean(axis=0)
        return centers
    cells = (bins[:, :, None] * d + np.arange(d)).ravel()
    weights = np.broadcast_to(points, (n_active, *points.shape)).ravel()
    sums = np.bincount(cells, weights=weights, minlength=n_active * k * d).reshape(centers.shape)
    occupied = np.broadcast_to(counts[:, :, None] > 0, centers.shape)
    return np.divide(sums, counts[:, :, None], out=centers, where=occupied)


def _repair_empty_clusters(labels: np.ndarray, points: np.ndarray, k: int) -> np.ndarray:
    """Fill each empty cluster with the farthest member of the largest one."""
    labels = labels.copy()
    while True:
        sizes = np.bincount(labels, minlength=k)
        empties = np.flatnonzero(sizes == 0)
        if len(empties) == 0:
            return labels
        donor = int(np.argmax(sizes))
        members = np.flatnonzero(labels == donor)
        centroid = points[members].mean(axis=0)
        gaps = ((points[members] - centroid) ** 2).sum(axis=1)
        labels[members[int(np.argmax(gaps))]] = empties[0]


def _canonical_labels(labels: np.ndarray, k: int) -> np.ndarray:
    """Renumber clusters by ascending smallest member index."""
    first_member = [int(np.flatnonzero(labels == j)[0]) for j in range(k)]
    remap = np.empty(k, dtype=np.int64)
    remap[np.argsort(first_member)] = np.arange(k)
    return remap[labels]


def kmeans(points, k: int, seed: int) -> ClusterAssignment:
    """Seeded k-means++ with restarts, keeping the lowest-inertia result.

    Draws KMEANS_RESTARTS independent initializations, in order, from one
    seeded generator, then runs the restarts' Lloyd iterations together,
    each until its assignments stabilize; the first restart of lowest
    inertia wins. Any empty cluster is repaired by donating the farthest
    point of the largest cluster, and labels are canonicalized by ascending
    smallest member index, so equal (points, k, seed) always yields the
    identical result. k must be an integer in [1, n] and seed one >= 0
    (data.integer's rule), else ParameterError.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.size == 0:
        raise ParameterError("points must be a non-empty (n, d) array, n and d >= 1")
    if not np.all(np.isfinite(pts)):
        raise ParameterError("points must be finite")
    if integer(k, "k") > len(pts):
        raise ParameterError(f"k must lie in [1, {len(pts)}]")
    rng = np.random.default_rng(integer(seed, "seed", 0))
    centers = np.stack([_plusplus_centers(pts, k, rng) for _ in range(KMEANS_RESTARTS)])
    labels, inertia = _lloyd(pts, centers)
    repaired = _repair_empty_clusters(labels[np.argmin(inertia)], pts, k)
    return ClusterAssignment(_canonical_labels(repaired, k), k)


def spectral_cluster(similarity: SimilarityMatrix, n_clusters: int, seed: int) -> ClusterAssignment:
    """Normalized-cut style clustering of the similarity graph.

    Embeds clients into the eigenvectors of the M smallest normalized-
    Laplacian eigenvalues, row-normalizes the embedding (rows below 1e-12
    norm stay zero), and k-means the rows with k = M. M must be an integer
    in [1, n_clients], else ParameterError.
    """
    n = similarity.n_clients
    if integer(n_clusters, "n_clusters") > n:
        raise ParameterError(f"n_clusters must lie in [1, {n}]")
    _, vecs = symmetric_eig(normalized_laplacian(similarity))
    embedding = vecs[:, :n_clusters].copy()
    norms = np.linalg.norm(embedding, axis=1)
    safe = norms >= 1e-12
    embedding[safe] /= norms[safe, None]
    return kmeans(embedding, n_clusters, seed)


def laplacian_eigengaps(similarity: SimilarityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Ascending Laplacian spectrum and its consecutive gaps.

    A large gap after the M-th eigenvalue is the usual hint that M clusters
    fit the graph; this is reported, never used to auto-pick M.
    """
    values, _ = symmetric_eig(normalized_laplacian(similarity))
    return values, np.diff(values)


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected agreement between two clusterings, in [-1, 1]."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ParameterError("label vectors must have identical length")
    n = len(a)
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def comb2(x):
        x = np.asarray(x, dtype=np.float64)
        return x * (x - 1.0) / 2.0

    sum_cells = float(comb2(table).sum())
    sum_rows = float(comb2(table.sum(axis=1)).sum())
    sum_cols = float(comb2(table.sum(axis=0)).sum())
    total = float(comb2(n))
    expected = sum_rows * sum_cols / total if total else 0.0
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0
    return (sum_cells - expected) / (max_index - expected)
