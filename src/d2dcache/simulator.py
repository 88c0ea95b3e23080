"""Monte Carlo simulation of the clustered D2D caching network.

Users sit on a square grid that is tiled into equal square clusters.
Each user fills ``s`` cache slots with iid draws from the placement
distribution and requests one file per slot time.  A request is served
when some *other* user in the same cluster caches it; each cluster with
at least one served user schedules one D2D link per slot (the network
activates one of every ``k`` clusters), shared round-robin among that
cluster's served users.

The per-realization accounting identity

    sum_u throughput(u) = c_rate * good_clusters / k

is verified on every realization; a violation raises InvariantError since
it can only come from a bookkeeping bug.

Draws invert a cdf through ``max(L, min(16L, 2**22))`` guide buckets for ``L``
ranks: caches over the policy's support ``1..m_star``, requests over ``1..m_star``
plus one bucket ``m_star + 1`` for all later ranks.  A table with a row per cluster
and a column per rank up to ``m_star + 1`` counts who holds what; no cache holds
rank ``m_star + 1``.  Memory is O(n*s + n_clusters*m_star) whatever ``m``: one request
table and one cluster map, each a single-entry cache, are alive at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .asymptotics import RegimeParams, TradeoffPoint, theory_points
from .errors import ConfigError, DomainError, InvariantError
from .policy import CachingPolicy, _exponent_denom, hit_probability, waterfill
from .popularity import _invert

__all__ = [
    "NetworkConfig",
    "Realization",
    "SimResult",
    "realize",
    "per_user_throughput",
    "throughput_accounting",
    "monte_carlo",
    "curve_points",
    "sweep",
]


def _is_square(x: int) -> bool:
    return x >= 0 and math.isqrt(x) ** 2 == x


@dataclass(frozen=True)
class NetworkConfig:
    """Geometry and link parameters of the simulated network."""

    n: int
    n_clusters: int
    s: int = 1
    k: int = 1
    c_rate: float = 1.0
    include_self_cache: bool = False

    def __post_init__(self):
        if self.n < 4 or not _is_square(self.n):
            raise ConfigError(f"n must be a perfect square >= 4, got {self.n}")
        if self.n_clusters < 1 or not _is_square(self.n_clusters):
            raise ConfigError(
                f"n_clusters must be a positive perfect square, got {self.n_clusters}"
            )
        if self.n % self.n_clusters != 0:
            raise ConfigError(f"n_clusters {self.n_clusters} must divide n {self.n}")
        _exponent_denom(self.s, self.g_c)
        if self.k < 1 or not self.c_rate > 0:
            raise ConfigError("need k >= 1 and c_rate > 0")

    @property
    def g_c(self) -> int:
        return self.n // self.n_clusters

    @lru_cache(maxsize=1)
    def cluster_map(self) -> np.ndarray:
        """User index -> cluster index, by square tiling of the grid; read-only and shared.

        n and n_clusters are both perfect squares with n_clusters | n, so
        the tile side sqrt(n)/sqrt(n_clusters) is an exact integer.
        """
        side = math.isqrt(self.n)
        tiles = math.isqrt(self.n_clusters)
        tile = side // tiles
        u = np.arange(self.n)
        clusters = (u // side // tile) * tiles + (u % side) // tile
        clusters.flags.writeable = False
        return clusters


@dataclass(frozen=True)
class Realization:
    caches: np.ndarray  # (n, s) cached file per slot
    requests: np.ndarray  # (n,) requested rank, m_star + 1 for any rank past the support
    linked: np.ndarray  # (n,) bool, request held by another cluster member
    self_hit: np.ndarray  # (n,) bool, request in own cache
    served: np.ndarray  # (n,) bool
    potential_links: np.ndarray  # (n_clusters,) linked users per cluster
    good_clusters: int


def realize(config: NetworkConfig, dist, policy: CachingPolicy,
            rng: np.random.Generator) -> Realization:
    """Draw one network state: caches, requests and who gets served."""
    # two draws and cluster offsets made twice keep few n-sized arrays alive: a trial's
    # heap peak mostly fits in what the last one freed, so glibc need not trim and refault
    n, s = config.n, config.s
    clusters = config.cluster_map()
    caches = _invert(policy._table, rng.random((n, s)))
    requests = _invert(dist._request_table(policy.m_star), rng.random(n))

    # one column per rank 1..m_star + 1 (column 0 stays empty); no cache holds the
    # last one, the request bucket of every rank past the support
    width = policy.m_star + 2
    held = np.bincount((clusters[:, None] * width + caches).ravel(),
                       minlength=config.n_clusters * width)
    own = caches == requests[:, None]
    own_slots = own[:, 0] if s == 1 else np.count_nonzero(own, axis=1)
    linked = held[clusters * width + requests] > own_slots
    self_hit = own_slots.astype(bool, copy=False)
    served = (linked | self_hit) if config.include_self_cache else linked

    potential_links = np.bincount(clusters, weights=linked,
                                  minlength=config.n_clusters).astype(np.int64)
    return Realization(
        caches=caches,
        requests=requests,
        linked=linked,
        self_hit=self_hit,
        served=served,
        potential_links=potential_links,
        good_clusters=int(np.count_nonzero(potential_links)),
    )


def per_user_throughput(config: NetworkConfig, real: Realization) -> np.ndarray:
    """Rate each user receives: the cluster link is split round-robin
    among its linked users; self-hits consume no airtime."""
    # a cluster without linked users has no share to give: any divisor will do
    share = config.c_rate / (config.k * np.maximum(real.potential_links, 1))
    return np.where(real.linked, share[config.cluster_map()], 0.0)


def throughput_accounting(config: NetworkConfig, real: Realization):
    """(t_sum, t_min, outage) for one realization.

    t_sum collapses to c_rate * good_clusters / k because every good
    cluster contributes exactly one link of rate c_rate/k; the identity
    is re-derived from the per-user rates and enforced.
    """
    per_user = per_user_throughput(config, real)
    t_sum = float(per_user.sum())
    expected = config.c_rate * real.good_clusters / config.k
    if not math.isclose(t_sum, expected, rel_tol=1e-9, abs_tol=1e-12):
        raise InvariantError(
            f"throughput accounting mismatch: {t_sum} != {expected}"
        )
    t_min = t_sum / config.n
    outage = 1.0 - float(np.count_nonzero(real.served)) / config.n
    return t_sum, t_min, outage


@dataclass(frozen=True)
class SimResult:
    outage_mean: float
    outage_stderr: float
    throughput_min_mean: float
    throughput_min_stderr: float
    trials: int


def _as_seedseq(seed) -> np.random.SeedSequence:
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def monte_carlo(config: NetworkConfig, dist, policy: CachingPolicy, trials: int,
                seed) -> SimResult:
    """Average outage and per-user throughput over independent trials.

    Bitwise deterministic in (config, dist, policy, trials, seed): each
    trial gets its own child generator, spawned in trial order as it starts.
    """
    if trials < 2:
        raise DomainError(f"need at least 2 trials for a stderr, got {trials}")
    try:
        outages, tmins = np.empty((2, trials))
    except (ValueError, MemoryError) as e:
        raise DomainError(f"cannot hold the results of {trials} trials: {e}") from None
    seq = _as_seedseq(seed)
    for t in range(trials):
        real = realize(config, dist, policy, np.random.default_rng(seq.spawn(1)[0]))
        _, tmins[t], outages[t] = throughput_accounting(config, real)
        del real  # freed before the next trial allocates, as in realize

    def stderr(x):
        return float(x.std(ddof=1) / math.sqrt(trials))

    return SimResult(
        outage_mean=float(outages.mean()),
        outage_stderr=stderr(outages),
        throughput_min_mean=float(tmins.mean()),
        throughput_min_stderr=stderr(tmins),
        trials=trials,
    )


def _regime_params(config: NetworkConfig, dist) -> RegimeParams:
    """The closed forms' parameter point at ``config``'s geometry and ``dist``'s law."""
    return RegimeParams(
        gamma=dist.gamma, q=dist.q, m=dist.m, s=config.s, g_c=config.g_c,
        k=config.k, c_rate=config.c_rate,
    )


def _served_probability(config: NetworkConfig, dist, policy: CachingPolicy) -> float:
    """1 - exact outage.  With self_cache all s*g_c slots serve: the D2D exponent at g_c + 1."""
    return hit_probability(dist, policy, config.s, config.g_c + config.include_self_cache)


def curve_points(config: NetworkConfig, dist, policy: CachingPolicy) -> list[TradeoffPoint]:
    """The exact-sum point of ``policy`` and the closed-form points at ``config``'s geometry."""
    g_c = config.g_c
    hit = hit_probability(dist, policy, config.s, g_c)
    # expected fraction of good clusters, treating users as independent
    p_good = 1.0 - (1.0 - hit) ** g_c
    served = _served_probability(config, dist, policy) if config.include_self_cache else hit
    exact = TradeoffPoint(
        g_c=g_c,
        outage=1.0 - served,
        throughput=(config.c_rate / config.k) * p_good / g_c,
        source="exact_sum",
    )
    return [exact, *theory_points(_regime_params(config, dist))]


def sweep(configs, dist, trials: int, seed) -> list[TradeoffPoint]:
    """Simulated point, then :func:`curve_points`, for each config in order.

    Each config is seeded by (seed, n_clusters), so adding or removing
    configs does not perturb the others.
    """
    master = _as_seedseq(seed)
    points = []
    for cfg in configs:
        policy = waterfill(dist, cfg.s, cfg.g_c)
        child = np.random.SeedSequence(entropy=master.entropy, spawn_key=(cfg.n_clusters,))
        sim = monte_carlo(cfg, dist, policy, trials, child)
        points.append(
            TradeoffPoint(
                g_c=cfg.g_c,
                outage=sim.outage_mean,
                throughput=sim.throughput_min_mean,
                source="simulated",
                outage_stderr=sim.outage_stderr,
                throughput_stderr=sim.throughput_min_stderr,
            )
        )
        points.extend(curve_points(cfg, dist, policy))
    return points
