"""Tests for the network simulator.

The accounting oracle re-derives per-user rates with plain python loops;
statistical tests pin the estimator to the exact hit probability within
3 standard errors under fixed seeds.
"""

import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from d2dcache.cli import _configs
from d2dcache.errors import ConfigError, DomainError
from d2dcache.policy import CachingPolicy, hit_probability, waterfill
from d2dcache.popularity import MZipfDist, _guide_table
from d2dcache.simulator import (
    NetworkConfig,
    Realization,
    curve_points,
    monte_carlo,
    per_user_throughput,
    realize,
    sweep,
    throughput_accounting,
)

from oracles import dense_table_realize


def naive_service(config, caches, requests, clusters):
    """Per-user link status and throughput by direct enumeration."""
    n = config.n
    linked = [False] * n
    for u in range(n):
        for v in range(n):
            if v != u and clusters[v] == clusters[u] and requests[u] in caches[v]:
                linked[u] = True
                break
    tput = [0.0] * n
    for cl in sorted(set(clusters.tolist())):
        members = [u for u in range(n) if clusters[u] == cl and linked[u]]
        for u in members:
            tput[u] = config.c_rate / (config.k * len(members))
    return linked, tput


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError, match="perfect square"):
            NetworkConfig(n=10, n_clusters=1)
        with pytest.raises(ConfigError, match="perfect square"):
            NetworkConfig(n=100, n_clusters=2)
        with pytest.raises(ConfigError, match="divide"):
            NetworkConfig(n=100, n_clusters=9)
        with pytest.raises(ConfigError, match=">= 2"):
            NetworkConfig(n=100, n_clusters=100)
        with pytest.raises(ConfigError):
            NetworkConfig(n=100, n_clusters=25, s=0)
        with pytest.raises(ConfigError):
            NetworkConfig(n=100, n_clusters=25, k=0)
        with pytest.raises(ConfigError, match="perfect square"):
            NetworkConfig(n=-4, n_clusters=1)
        with pytest.raises(ConfigError, match="perfect square"):
            NetworkConfig(n=100, n_clusters=-4)

    def test_cluster_size_is_forced_square(self):
        # two nested perfect squares make g_c a perfect square >= 4, so the
        # minimum-exponent guard can never fire here (it can in the policy)
        for nc in (1, 4, 25, 100):
            if 400 % nc == 0:
                assert NetworkConfig(n=400, n_clusters=nc).g_c >= 4

    def test_cluster_map_tiling(self):
        cfg = NetworkConfig(n=16, n_clusters=4)
        want = [0, 0, 1, 1,
                0, 0, 1, 1,
                2, 2, 3, 3,
                2, 2, 3, 3]
        assert cfg.cluster_map().tolist() == want

    def test_cluster_map_sizes_are_equal(self):
        cfg = NetworkConfig(n=144, n_clusters=9)
        counts = np.bincount(cfg.cluster_map())
        assert counts.tolist() == [16] * 9


class TestRealize:
    def test_single_file_library_never_misses(self):
        dist = MZipfDist(1.0, 0.0, 1)
        cfg = NetworkConfig(n=10_000, n_clusters=100, s=1, k=4, c_rate=1.0)
        policy = waterfill(dist, 1, cfg.g_c)
        real = realize(cfg, dist, policy, np.random.default_rng(0))
        t_sum, t_min, outage = throughput_accounting(cfg, real)
        assert outage == 0.0
        assert t_sum == pytest.approx(25.0)
        assert t_min == pytest.approx(2.5e-3)
        assert real.good_clusters == 100

    def test_certain_miss(self):
        class AlwaysFileTwo:
            # every request draws rank 2 from the request table
            def _request_table(self, m_star):
                return _guide_table(np.array([0.0, 1.0]))

        cfg = NetworkConfig(n=16, n_clusters=4, s=1)
        policy = CachingPolicy(probs=np.array([1.0]), nu=0.0, m=2, exponent_denom=2)
        real = realize(cfg, AlwaysFileTwo(), policy, np.random.default_rng(1))
        t_sum, t_min, outage = throughput_accounting(cfg, real)
        assert outage == 1.0
        assert t_sum == 0.0
        assert real.good_clusters == 0

    def test_uncached_rank_below_the_largest_cached_one_keeps_its_value(self):
        class AlwaysFileTwo:
            # every request draws rank 2 from the request table
            def _request_table(self, m_star):
                return _guide_table(np.array([0.0, 1.0, 0.0]))

        # no cache holds rank 2, but rank 3 lies above it in the held table
        cfg = NetworkConfig(n=16, n_clusters=4, s=1)
        policy = CachingPolicy(probs=np.array([0.5, 0.0, 0.5]), nu=0.0, m=3, exponent_denom=2)
        real = realize(cfg, AlwaysFileTwo(), policy, np.random.default_rng(1))
        assert real.caches.max() == 3 and not np.any(real.caches == 2)
        assert real.requests.tolist() == [2] * cfg.n
        assert not real.linked.any() and real.good_clusters == 0

    @pytest.mark.parametrize("s", [1, 3])
    def test_draws_n_times_s_plus_one_uniforms(self, s):
        dist = MZipfDist(0.7, 2.0, 40)
        cfg = NetworkConfig(n=36, n_clusters=9, s=s)
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        realize(cfg, dist, waterfill(dist, s, cfg.g_c), rng)
        twin.random(cfg.n * (s + 1))
        assert rng.random() == twin.random()

    def test_matches_naive_enumeration(self):
        dist = MZipfDist(0.7, 2.0, 40)
        cfg = NetworkConfig(n=36, n_clusters=9, s=2, k=3, c_rate=2.0)
        clusters = cfg.cluster_map()
        policy = waterfill(dist, cfg.s, cfg.g_c)
        for seed in range(8):
            real = realize(cfg, dist, policy, np.random.default_rng(seed))
            want_linked, want_tput = naive_service(
                cfg, real.caches, real.requests, clusters
            )
            assert real.linked.tolist() == want_linked
            got = per_user_throughput(cfg, real)
            assert np.allclose(got, want_tput, atol=1e-12)
            t_sum, _, _ = throughput_accounting(cfg, real)
            assert t_sum == pytest.approx(sum(want_tput), abs=1e-12)

    def test_self_cache_flag_widens_service(self):
        dist = MZipfDist(0.5, 0.0, 5)
        base = NetworkConfig(n=16, n_clusters=4, s=1)
        with_self = NetworkConfig(n=16, n_clusters=4, s=1, include_self_cache=True)
        policy = waterfill(dist, 1, 4)
        r1 = realize(base, dist, policy, np.random.default_rng(3))
        r2 = realize(with_self, dist, policy, np.random.default_rng(3))
        assert r1.linked.tolist() == r2.linked.tolist()
        assert np.all(r2.served >= r1.served)
        assert np.array_equal(r2.served, r2.linked | r2.self_hit)

    @pytest.mark.parametrize(
        "n_clusters,s,self_cache",
        [
            (2500, 1, False),  # g_c = 4: most requests lie above every cached rank
            (2500, 2, True),
            (400, 1, True),
            (100, 3, False),
            (4, 1, True),
        ],
    )
    def test_matches_dense_table_reference(self, n_clusters, s, self_cache):
        dist = MZipfDist(0.6, 20.0, 1000)
        cfg = NetworkConfig(n=10_000, n_clusters=n_clusters, s=s, k=4,
                            include_self_cache=self_cache)
        policy = waterfill(dist, s, cfg.g_c)
        for seed in range(3):
            got = realize(cfg, dist, policy, np.random.default_rng(seed))
            want = dense_table_realize(cfg, dist, policy, np.random.default_rng(seed))
            # ranks past the support come back as m_star + 1, the request table's last bucket
            want = dataclasses.replace(want, requests=np.minimum(
                want.requests, policy.m_star + 1))
            for f in dataclasses.fields(Realization):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype, f.name

    def test_held_table_does_not_grow_with_library(self):
        # a table with a column for every requested rank would need
        # n_clusters * (m + 1) = 2.5e10 entries here, about 200 GB
        dist = MZipfDist(0.6, 20.0, 100_000)
        cfg = NetworkConfig(n=1_000_000, n_clusters=250_000, s=1, k=4)
        policy = waterfill(dist, cfg.s, cfg.g_c)
        tracemalloc.start()
        try:
            real = realize(cfg, dist, policy, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.any(real.requests == policy.m_star + 1)
        assert peak < 200e6

    def test_request_past_the_support_is_never_served(self):
        # g_c = 4, s = 2: the support is 25 of 1000 ranks, so many requests land past it
        dist = MZipfDist(0.6, 20.0, 1000)
        cfg = NetworkConfig(n=10_000, n_clusters=2500, s=2, include_self_cache=True)
        policy = waterfill(dist, cfg.s, cfg.g_c)
        real = realize(cfg, dist, policy, np.random.default_rng(0))
        later = real.requests == policy.m_star + 1
        assert later.any() and real.requests.max() == policy.m_star + 1
        assert not (real.linked[later].any() or real.self_hit[later].any()
                    or real.served[later].any())
        assert real.served[~later].any()

    def test_width_is_m_star_plus_two_when_the_support_is_the_library(self, monkeypatch):
        dist = MZipfDist(1.0, 0.0, 5)
        cfg = NetworkConfig(n=400, n_clusters=4, s=1)
        policy = waterfill(dist, cfg.s, cfg.g_c)
        assert policy.m_star == dist.m
        minlengths = []

        def spy(x, weights=None, minlength=0, bincount=np.bincount):
            minlengths.append(minlength)
            return bincount(x, weights=weights, minlength=minlength)

        monkeypatch.setattr(np, "bincount", spy)
        real = realize(cfg, dist, policy, np.random.default_rng(0))
        monkeypatch.undo()
        # the held table, then the linked users per cluster
        assert minlengths == [cfg.n_clusters * (policy.m_star + 2), cfg.n_clusters]
        assert real.requests.max() <= dist.m
        want = dense_table_realize(cfg, dist, policy, np.random.default_rng(0))
        assert real.linked.tolist() == want.linked.tolist()

    def test_memory_does_not_grow_with_library(self):
        # a request table over all m = 10^7 ranks would take about 4 * 8m bytes
        dist = MZipfDist(0.6, 20.0, 10**7)
        cfg = NetworkConfig(n=1_000_000, n_clusters=10_000, s=1, k=4)
        policy = waterfill(dist, cfg.s, cfg.g_c)
        tracemalloc.start()
        try:
            realize(cfg, dist, policy, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a dozen n-sized arrays, and a held table of n_clusters * (m_star + 1)
        # counts, here 10^4 * 215
        assert policy.m_star < 1000
        assert peak < 100 * cfg.n * cfg.s, peak

    # tile * tiles is the grid side (<= 12); tiles**2 clusters of tile**2 >= 4
    # users always meet the geometry rule
    @settings(max_examples=200, deadline=None)
    @given(tile=st.integers(2, 6), tiles=st.integers(1, 6), s=st.integers(1, 3),
           k=st.integers(1, 4), c_rate=st.floats(1e-3, 1e3), self_cache=st.booleans(),
           gamma=st.floats(0.05, 3.0), q=st.floats(0.0, 100.0), m=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1))
    def test_accounting_property(self, tile, tiles, s, k, c_rate, self_cache, gamma, q, m,
                                 seed):
        assume(tile * tiles <= 12)
        cfg = NetworkConfig(n=(tile * tiles) ** 2, n_clusters=tiles**2, s=s, k=k,
                            c_rate=c_rate, include_self_cache=self_cache)
        dist = MZipfDist(gamma, q, m)
        policy = waterfill(dist, s, cfg.g_c)
        real = realize(cfg, dist, policy, np.random.default_rng(seed))
        _, _, outage = throughput_accounting(cfg, real)
        assert not np.any(real.linked & ~real.served)
        assert 0.0 <= outage <= 1.0


def test_analysis_memory_does_not_grow_with_library():
    # the normalizer is O(1) in m (partial_sum) and the placement reads pmf
    # prefixes only, so 10^7 ranks peak no higher than 2^22
    cfg = NetworkConfig(n=10_000, n_clusters=100, s=1, k=4)
    peaks = []
    for m in (1 << 22, 10**7):
        tracemalloc.start()
        try:
            dist = MZipfDist(0.6, 20.0, m)
            curve_points(cfg, dist, waterfill(dist, cfg.s, cfg.g_c))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "probs" not in vars(dist)
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 1 << 20, peaks


class TestMonteCarlo:
    def test_estimator_is_unbiased(self):
        # average service rate over trials must sit within 3 stderr of the
        # exactly computed hit probability
        dist = MZipfDist(0.6, 20.0, 1000)
        cfg = NetworkConfig(n=10_000, n_clusters=100, s=1, k=4)
        policy = waterfill(dist, 1, cfg.g_c)
        res = monte_carlo(cfg, dist, policy, trials=200, seed=2024)
        hit = hit_probability(dist, policy, 1, cfg.g_c)
        assert abs((1.0 - res.outage_mean) - hit) <= 3 * res.outage_stderr
        assert res.outage_stderr > 0

    def test_bitwise_deterministic(self):
        dist = MZipfDist(0.8, 5.0, 200)
        cfg = NetworkConfig(n=400, n_clusters=16, s=1)
        policy = waterfill(dist, 1, cfg.g_c)
        a = monte_carlo(cfg, dist, policy, trials=20, seed=7)
        b = monte_carlo(cfg, dist, policy, trials=20, seed=7)
        assert a == b

    def test_seed_sequence_is_read_not_advanced(self):
        # a SeedSequence seed is a value: a second call with it repeats the first,
        # and an int seed draws what the SeedSequence of that int draws
        dist = MZipfDist(0.8, 5.0, 200)
        cfg = NetworkConfig(n=400, n_clusters=16, s=1)
        policy = waterfill(dist, 1, cfg.g_c)
        ss = np.random.SeedSequence(7)
        a = monte_carlo(cfg, dist, policy, trials=20, seed=ss)
        assert monte_carlo(cfg, dist, policy, trials=20, seed=ss) == a
        assert monte_carlo(cfg, dist, policy, trials=20, seed=7) == a

    @pytest.mark.parametrize("cfg,seed,want", [
        (NetworkConfig(n=400, n_clusters=100, s=1), 7,
         ("0x1.de872b020c49bp-1", "0x1.42b49a885bf9fp-9",
          "0x1.ee978d4fdf3b6p-5", "0x1.0d3e2a14fd47dp-9")),
        (NetworkConfig(n=400, n_clusters=25, s=2, k=3, c_rate=2.0, include_self_cache=True), 11,
         ("0x1.65c28f5c28f5cp-1", "0x1.0afa17a7dd964p-8",
          "0x1.53f7ced916872p-5", "0x1.e11ea25f88c5fp-14")),
    ], ids=["s1", "s2-self-cache"])
    def test_golden_results(self, cfg, seed, want):
        # pinned bit for bit: a kernel that moves the random stream or the
        # accounting by one ulp fails here, not only in a run-to-run comparison
        dist = MZipfDist(0.8, 5.0, 200)
        res = monte_carlo(cfg, dist, waterfill(dist, cfg.s, cfg.g_c), trials=20, seed=seed)
        got = (res.outage_mean, res.outage_stderr, res.throughput_min_mean,
               res.throughput_min_stderr)
        assert tuple(x.hex() for x in got) == want and res.trials == 20

    def test_lazy_tables_fill_safely_under_threads(self):
        # the threads share one fresh dist, policy and config, so they race
        # to build the inversion tables and the cluster map
        def fresh():
            dist = MZipfDist(0.8, 5.0, 200)
            cfg = NetworkConfig(n=400, n_clusters=16, s=1)
            return cfg, dist, waterfill(dist, 1, cfg.g_c)

        shared = fresh()
        results = [None] * 8

        def run(i):
            results[i] = monte_carlo(*shared, trials=8, seed=5)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [monte_carlo(*fresh(), trials=8, seed=5)] * len(results)

    def test_holds_no_seed_per_trial(self):
        # the results take 16 bytes a trial; a seed list spawned ahead took ~380 more
        dist = MZipfDist(0.8, 5.0, 200)
        cfg = NetworkConfig(n=16, n_clusters=4, s=1)
        policy = waterfill(dist, 1, cfg.g_c)
        monte_carlo(cfg, dist, policy, trials=2, seed=1)  # tables built before tracing
        trials = 2000
        tracemalloc.start()
        try:
            monte_carlo(cfg, dist, policy, trials=trials, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * trials + 64 * 1024, peak

    def test_a_config_run_again_after_another_gives_the_same_result(self):
        # one request table and one cluster map are kept, so B evicts A's and A rebuilds them
        runs = {
            "A": (NetworkConfig(n=400, n_clusters=16, s=1), MZipfDist(0.8, 5.0, 200)),
            "B": (NetworkConfig(n=400, n_clusters=25, s=2, include_self_cache=True),
                  MZipfDist(0.6, 20.0, 300)),
        }

        def run(name):
            cfg, dist = runs[name]
            return monte_carlo(cfg, dist, waterfill(dist, cfg.s, cfg.g_c), trials=10, seed=3)

        def bits(res):
            return [x.hex() if isinstance(x, float) else x for x in dataclasses.astuple(res)]

        first, other, again = run("A"), run("B"), run("A")
        assert bits(again) == bits(first) and other != first
        clusters = runs["A"][0].cluster_map()
        assert not clusters.flags.writeable
        with pytest.raises(ValueError):
            clusters[0] = 1

    def test_outage_decreases_with_gamma(self):
        cfg = NetworkConfig(n=2500, n_clusters=25, s=1, k=1)
        outs = []
        for gamma in (0.2, 0.6, 1.0):
            dist = MZipfDist(gamma, 20.0, 1000)
            policy = waterfill(dist, 1, cfg.g_c)
            res = monte_carlo(cfg, dist, policy, trials=40, seed=5)
            exact = 1.0 - hit_probability(dist, policy, 1, cfg.g_c)
            assert abs(res.outage_mean - exact) <= 4 * res.outage_stderr
            outs.append(res.outage_mean)
        assert outs[0] > outs[1] > outs[2]

    def test_outage_grows_with_plateau(self):
        cfg = NetworkConfig(n=2500, n_clusters=25, s=1)
        res = {}
        for q in (5.0, 50.0):
            dist = MZipfDist(0.8, q, 1000)
            policy = waterfill(dist, 1, cfg.g_c)
            res[q] = monte_carlo(cfg, dist, policy, trials=40, seed=11)
        gap = res[50.0].outage_mean - res[5.0].outage_mean
        assert gap > 3 * (res[50.0].outage_stderr + res[5.0].outage_stderr)

    def test_users_are_exchangeable(self):
        # no positional bias from the tiling: long-run per-user average
        # throughputs agree within sampling noise
        dist = MZipfDist(0.9, 1.0, 30)
        cfg = NetworkConfig(n=16, n_clusters=4, s=1)
        policy = waterfill(dist, 1, 4)
        ss = np.random.SeedSequence(13)
        trials = 2000
        tput = np.zeros((trials, 16))
        for t, child in enumerate(ss.spawn(trials)):
            real = realize(cfg, dist, policy, np.random.default_rng(child))
            tput[t] = per_user_throughput(cfg, real)
        means = tput.mean(axis=0)
        stderr = tput.std(axis=0, ddof=1).max() / np.sqrt(trials)
        assert means.max() - means.min() <= 6 * stderr

    def test_requires_two_trials(self):
        dist = MZipfDist(0.8, 5.0, 200)
        cfg = NetworkConfig(n=400, n_clusters=16, s=1)
        policy = waterfill(dist, 1, cfg.g_c)
        with pytest.raises(DomainError, match="trials"):
            monte_carlo(cfg, dist, policy, trials=1, seed=0)


class TestSweep:
    CLUSTER_COUNTS = [i * i for i in range(2, 28)]

    @staticmethod
    def configs(counts):
        return [NetworkConfig(n=10_000, n_clusters=nc, s=1, k=4) for nc in counts]

    def test_infeasible_counts_are_skipped_with_reasons(self, capsys):
        # the CLI turns a count grid into the feasible configs sweep runs
        dist = MZipfDist(0.6, 20.0, 1000)
        scn = dict(n=10_000, s=1, k=4, cluster_counts=self.CLUSTER_COUNTS)
        out = sweep(_configs(scn), dist, trials=8, seed=1)
        feasible = sorted({p.g_c for p in out})
        assert feasible == [16, 25, 100, 400, 625, 2500]
        skipped = capsys.readouterr().err.splitlines()
        assert len(skipped) == len(self.CLUSTER_COUNTS) - 6
        assert all(line.split(" skipped: ")[1] for line in skipped)

    def test_sources_present_per_point(self):
        dist = MZipfDist(0.6, 20.0, 1000)
        out = sweep(self.configs([100, 16]), dist, trials=8, seed=1)
        by_g = {}
        for p in out:
            by_g.setdefault(p.g_c, set()).add(p.source)
        assert by_g[100] >= {"simulated", "exact_sum", "closed_form", "small_gamma_r2"}
        assert by_g[625] >= {"simulated", "exact_sum", "lower_bound", "small_gamma_r3"}

    def test_simulated_outage_non_increasing_in_cluster_size(self):
        dist = MZipfDist(0.6, 20.0, 1000)
        out = sweep(self.configs([4, 16, 25, 100, 400, 625]), dist, trials=12, seed=3)
        sim = sorted(
            (p for p in out if p.source == "simulated"), key=lambda p: p.g_c
        )
        outages = [p.outage for p in sim]
        assert all(a >= b for a, b in zip(outages, outages[1:])), outages

    def test_keeps_one_request_table_and_one_cluster_map(self):
        # supports grow with g_c; a per-config cache kept every table and map alive
        dist = MZipfDist(0.6, 20.0, 100_000)
        configs = self.configs([100, 16, 4])
        sweep(self.configs([25]), dist, trials=2, seed=1)  # lazy imports before tracing
        tracemalloc.start()
        try:
            points = sweep(configs, dist, trials=2, seed=1)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        supports = [waterfill(dist, c.s, c.g_c).m_star for c in configs]
        assert len(set(supports)) == 3 and max(supports) < dist.m and len(points) > 3
        table = max(sum(a.nbytes for a in dist._request_table(k)) for k in supports)
        assert retained < table + configs[0].cluster_map().nbytes + 64 * 1024, retained

    def test_deterministic_and_order_insensitive_seeding(self):
        dist = MZipfDist(0.6, 20.0, 1000)
        a = sweep(self.configs([16, 100]), dist, trials=6, seed=9)
        b = sweep(self.configs([16, 100]), dist, trials=6, seed=9)
        assert a == b
        # dropping one count must not change the other's simulated point
        c = sweep(self.configs([100]), dist, trials=6, seed=9)
        sim_b = [p for p in b if p.source == "simulated" and p.g_c == 100]
        sim_c = [p for p in c if p.source == "simulated"]
        assert sim_b == sim_c

    def test_spawned_seeds_give_different_sweeps(self):
        # each config's seed derives from the whole seed, spawn key included
        dist = MZipfDist(0.6, 20.0, 1000)
        first, second = np.random.SeedSequence(5).spawn(2)
        a = sweep(self.configs([100]), dist, trials=6, seed=first)
        b = sweep(self.configs([100]), dist, trials=6, seed=second)
        assert a[0].source == b[0].source == "simulated" and a[0] != b[0]
        assert sweep(self.configs([100]), dist, trials=6, seed=first) == a
