"""Independent brute-force oracles used to verify library computations.

Everything here sticks to first principles (explicit enumeration, textbook
normal equations) so that agreement with the library is meaningful.
"""

from __future__ import annotations

import random

import numpy as np

from spillnet.errors import ParameterError
from spillnet.graph import Network


def enumerate_treatments(n: int, p: float):
    """Yield every treatment vector with its Bernoulli probability."""
    for code in range(2**n):
        d = np.array([(code >> i) & 1 for i in range(n)], dtype=np.int64)
        k = int(d.sum())
        yield d, p**k * (1.0 - p) ** (n - k)


def neighbor_lists(net: Network) -> list[list[int]]:
    """Each node's sorted neighbors, built edge by edge from ``net.u`` and ``net.v``."""
    nbrs: list[list[int]] = [[] for _ in range(net.n)]
    for a, b in zip(net.u.tolist(), net.v.tolist()):
        nbrs[a].append(b)
        nbrs[b].append(a)
    return [sorted(x) for x in nbrs]


def treated_neighbor_counts(neighbors, d: np.ndarray) -> np.ndarray:
    return np.array([int(d[nbrs].sum()) for nbrs in neighbors], dtype=np.int64)


def exact_dbar_star_moments(net, p: float) -> tuple[float, float, float]:
    """(mean, variance, covariance-with-degree) of the zero-imputed fraction.

    Expectations run over all 2^n treatment vectors and a uniformly drawn
    node, entirely by enumeration.
    """
    degree = net.degree.astype(float)
    safe = np.maximum(degree, 1.0)
    neighbors = neighbor_lists(net)
    e_x = e_xx = e_xg = 0.0
    for d, prob in enumerate_treatments(net.n, p):
        t = treated_neighbor_counts(neighbors, d)
        dbar_star = np.where(degree > 0, t / safe, 0.0)
        e_x += prob * float(dbar_star.mean())
        e_xx += prob * float((dbar_star**2).mean())
        e_xg += prob * float((dbar_star * degree).mean())
    mean_degree = float(degree.mean())
    return e_x, e_xx - e_x**2, e_xg - e_x * mean_degree


def normal_equation_ols(x: np.ndarray, y: np.ndarray):
    """Textbook normal-equation solve with homoskedastic standard errors."""
    xtx_inv = np.linalg.inv(x.T @ x)
    beta = xtx_inv @ (x.T @ y)
    resid = y - x @ beta
    sigma2 = float(resid @ resid) / (x.shape[0] - x.shape[1])
    se = np.sqrt(np.diag(sigma2 * xtx_inv))
    return beta, se


def reference_watts_strogatz(
    n: int, k: int, beta: float, delete_prob: float, seed: int
) -> Network:
    """The sequential pure-Python Watts-Strogatz-with-deletion generator.

    Rewires one lattice edge at a time on Mersenne Twister draws.
    ``spillnet.graph.generate_watts_strogatz`` settles the rewires in claim
    rounds on PCG64 instead, so the two agree in distribution on sparse
    graphs, not seed by seed.
    """
    if n < 3:
        raise ParameterError("watts-strogatz requires n >= 3")
    if k % 2 != 0 or k < 0:
        raise ParameterError("k must be a nonnegative even integer")
    if k >= n:
        raise ParameterError("k must be smaller than n")
    if not 0.0 <= beta <= 1.0:
        raise ParameterError("beta must lie in [0, 1]")
    if not 0.0 <= delete_prob <= 1.0:
        raise ParameterError("delete_prob must lie in [0, 1]")

    rng = random.Random(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    edges: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(1, k // 2 + 1):
            a, b = i, (i + j) % n
            adj[a].add(b)
            adj[b].add(a)
            edges.append((a, b))

    for idx, (a, b) in enumerate(edges):
        if rng.random() < beta:
            if len(adj[a]) >= n - 1:
                continue  # no legal target left; keep the edge in place
            while True:
                c = rng.randrange(n)
                if c != a and c not in adj[a]:
                    break
            adj[a].discard(b)
            adj[b].discard(a)
            adj[a].add(c)
            adj[c].add(a)
            edges[idx] = (a, c)

    surviving = sorted({(min(a, b), max(a, b)) for a, b in edges if b in adj[a]})
    for a, b in surviving:
        if rng.random() < delete_prob:
            adj[a].discard(b)
            adj[b].discard(a)

    pairs = sorted((a, b) for a in range(n) for b in adj[a] if a < b)
    u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return Network(n, u, v)
