"""Seeded property checks shared by the module tests and the acceptance suite.

Each function draws its own cases from a seeded generator and raises
AssertionError on the first violated invariant.  The default case counts
match the acceptance requirement of at least 100 cases per property.  The
module also holds the ``hypothesis`` strategies of JSON values that the
loader fuzz tests share.
"""

import math

import numpy as np
from hypothesis import strategies as st
from scipy import stats

from multiphoton import (
    GhzModel,
    SourceParams,
    distinguishable_distribution,
    exact_distribution,
    expected_rate,
    fire_sources,
    gaussian_jsa,
    haar_random_unitary,
    hom_dip,
    hv_outcome_distribution,
    likelihood_ratio_test,
    sample_outputs,
    scattershot_aggregate_validation,
    scattershot_run,
    schmidt_purity,
    simulate_ghz_experiment,
    theta_outcome_distribution,
    transition_submatrix,
    tv_distance,
    similarity,
)
from multiphoton.ghz import estimate_coherence, estimate_population
from multiphoton.permanent import permanent_naive, permanent_ryser
from multiphoton.sources import normalized_joint_spectrum


# JSON values: nested lists and objects of strings, booleans, nulls, floats
# (NaN and infinities included) and integers up to 10**400.
JSON_NUMBERS = st.floats() | st.integers(-10**400, 10**400)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6) | JSON_NUMBERS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=10)


def _random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def check_permanent_properties(seed=0, cases=100):
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n = int(rng.integers(1, 7))
        a = _random_complex(rng, n)
        ref = permanent_ryser(a)
        scale = max(abs(ref), 1.0)

        # row-swap and transpose invariance
        if n >= 2:
            i, j = rng.choice(n, size=2, replace=False)
            swapped = a.copy()
            swapped[[i, j]] = swapped[[j, i]]
            assert abs(permanent_ryser(swapped) - ref) <= 1e-10 * scale
        assert abs(permanent_ryser(a.T) - ref) <= 1e-10 * scale

        # one row scaled by c scales the permanent by c
        c = complex(rng.standard_normal(), rng.standard_normal())
        scaled = a.copy()
        row = int(rng.integers(n))
        scaled[row] *= c
        assert abs(permanent_ryser(scaled) - c * ref) <= 1e-9 * scale * max(abs(c), 1.0)

    for _ in range(cases):
        na, nb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a, b = _random_complex(rng, na), _random_complex(rng, nb)
        block = np.zeros((na + nb, na + nb), dtype=complex)
        block[:na, :na] = a
        block[na:, na:] = b
        product = permanent_ryser(a) * permanent_ryser(b)
        assert abs(permanent_ryser(block) - product) <= 1e-9 * max(abs(product), 1.0)

    for _ in range(cases):
        n = int(rng.integers(1, 9))
        a = _random_complex(rng, n)
        ref = permanent_naive(a)
        assert abs(permanent_ryser(a) - ref) <= 1e-10 * max(abs(ref), 1.0)


def check_linalg_properties(seed=0, cases=100):
    rng = np.random.default_rng(seed)
    for k in range(cases):
        m = int(rng.integers(1, 9))
        u = haar_random_unitary(m, seed * 1000 + k)
        assert np.all(np.abs(np.linalg.norm(u, axis=0) - 1.0) <= 1e-10)
        ones = (1,) * m
        assert np.array_equal(transition_submatrix(u, ones, ones), u)
        a = _random_complex(rng, int(rng.integers(1, 9)))
        assert np.allclose(np.linalg.svd(a, compute_uv=False),
                           np.linalg.svd(a.conj().T, compute_uv=False), atol=1e-9)


def check_sources_properties(seed=0, cases=100):
    rng = np.random.default_rng(seed)

    # Schmidt purity is basis independent: rotating either grid axis by a
    # unitary leaves the singular values unchanged.
    for k in range(cases):
        size = 24
        grid = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        jsa = normalized_joint_spectrum(grid, 0.1)
        u = haar_random_unitary(size, seed * 2000 + k)
        rotated = normalized_joint_spectrum(u @ jsa.amplitudes, 0.1)
        assert abs(schmidt_purity(rotated) - schmidt_purity(jsa)) <= 1e-9

    # purity decreases monotonically as the angle departs from the
    # factorable point
    factorable = -0.5 * math.asin(1.0)
    angles = factorable + np.linspace(0.0, 0.6, cases)
    purities = [
        schmidt_purity(gaussian_jsa(1.0, math.sqrt(0.5), float(a), 128)) for a in angles
    ]
    assert all(b <= a + 1e-12 for a, b in zip(purities, purities[1:]))

    # dip curve is even in tau and non-decreasing in |tau|
    for _ in range(cases):
        v = float(rng.uniform(0.0, 1.0))
        s = float(rng.uniform(0.1, 3.0))
        tau = float(rng.uniform(0.0, 5.0))
        assert hom_dip(v, s, tau) == hom_dip(v, s, -tau)
        assert hom_dip(v, s, 1.01 * tau) >= hom_dip(v, s, tau) - 1e-15

    # herald marginal converges to eps * eta_herald * eta_detect
    params = [SourceParams(0.2, 0.8, 0.75)] * 4
    pulses = 1_000_000
    fire = fire_sources(params, seed, pulses)
    expect = 0.2 * 0.8 * 0.75
    band = 5.0 * math.sqrt(expect * (1 - expect) / pulses)
    rates = fire.heralded.mean(axis=0)
    assert np.all(np.abs(rates - expect) <= band)
    assert not np.any(fire.heralded & ~fire.pair_created)
    assert not np.any(fire.signal_present & ~fire.pair_created)


def check_ghz_properties(seed=0, cases=100):
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n = int(rng.integers(2, 15))
        p = float(rng.uniform(0.0, 1.0))
        c = float(rng.uniform(0.0, p))
        model = GhzModel(n, p, c)
        hv = hv_outcome_distribution(model)
        assert abs(hv.sum() - 1.0) <= 1e-12
        theta = float(rng.uniform(0.0, 2 * math.pi))
        dist = theta_outcome_distribution(model, theta)
        assert abs(dist.sum() - 1.0) <= 1e-12
        assert dist.min() >= 0.0
        # <M_theta> flips sign under theta -> theta + pi/N
        parity = 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << n)) & 1)
        m_here = float(parity @ dist)
        m_shift = float(parity @ theta_outcome_distribution(model, theta + math.pi / n))
        assert abs(m_here + m_shift) <= 1e-12

    # estimator closure: 5 sigma coverage in >= 99 of 100 seeded trials
    hits = 0
    trials = 100
    for t in range(trials):
        p = float(rng.uniform(0.1, 1.0))
        c = float(rng.uniform(0.0, p))
        model = GhzModel(4, p, c)
        hv, thetas = simulate_ghz_experiment(model, 100_000, seed * 3000 + t)
        p_hat, p_sig = estimate_population(hv)
        c_hat, c_sig = estimate_coherence(thetas)
        ok = abs(p_hat - p) <= 5 * max(p_sig, 1e-12) and abs(c_hat - c) <= 5 * max(
            c_sig, 1e-12
        )
        hits += ok
    assert hits >= 99, f"closure held in only {hits}/100 trials"


def check_sampling_properties(seed=0, cases=100):
    rng = np.random.default_rng(seed)
    for k in range(cases):
        m = int(rng.integers(2, 13))
        n = int(rng.integers(1, min(5, m) + 1))
        u = haar_random_unitary(m, seed * 4000 + k)
        occ = np.zeros(m, dtype=int)
        occ[rng.choice(m, size=n, replace=False)] = 1
        dist = exact_distribution(u, occ)
        assert abs(dist.probabilities.sum() - 1.0) <= 1e-9

        # single photon interferes with nothing: the two hypotheses agree
        single = np.zeros(m, dtype=int)
        single[int(rng.integers(m))] = 1
        de = exact_distribution(u, single)
        dd = distinguishable_distribution(u, single)
        assert de.outcomes == dd.outcomes
        assert np.array_equal(de.probabilities, dd.probabilities)

        # a permutation matrix routes classically: point mass either way
        perm = np.eye(m)[rng.permutation(m)]
        for build in (exact_distribution, distinguishable_distribution):
            point = build(perm, occ)
            assert np.isclose(point.probabilities.max(), 1.0, atol=1e-12)

    # retained triggers are exchangeable across equal sources
    u = haar_random_unitary(8, seed + 17)
    params = [SourceParams.from_lumped_efficiency(0.3, 0.8)] * 8
    result = scattershot_run(u, params, 1_000_000, 2, seed)
    counts = {}
    for rec in result.records:
        counts[rec.trigger] = counts.get(rec.trigger, 0) + 1
    assert len(counts) == math.comb(8, 2)
    chi = stats.chisquare(list(counts.values()))
    assert chi.pvalue > 1e-3, f"trigger uniformity rejected, p={chi.pvalue}"

    # scattershot / standard rate gain matches C(k,n) (1 - eps eta)^(k-n)
    eps, k, n = 0.1, 12, 3
    u12 = haar_random_unitary(12, seed + 29)
    u3 = haar_random_unitary(3, seed + 31)
    ideal = [SourceParams(epsilon=eps)] * 12
    scatter = scattershot_run(u12, ideal, 10_000_000, n, seed + 1)
    standard = scattershot_run(u3, ideal[:3], 10_000_000, n, seed + 2)
    gain = scatter.report.rate_hz / standard.report.rate_hz
    predicted = math.comb(k, n) * (1 - eps) ** (k - n)
    assert abs(gain / predicted - 1.0) <= 0.10, f"gain {gain} vs {predicted}"


def check_validation_properties(seed=0, cases=100):
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        size = int(rng.integers(2, 30))
        p = rng.dirichlet(np.ones(size))
        q = rng.dirichlet(np.ones(size))
        keys = [(i,) for i in range(size)]
        pm = dict(zip(keys, p))
        qm = dict(zip(keys, q))
        s = similarity(pm, qm)
        d = tv_distance(pm, qm)
        assert 1.0 - s <= d + 1e-12
        assert d <= math.sqrt(max(0.0, 1.0 - s * s)) + 1e-12

    # positive drift under the true hypothesis in >= 95 of 100 runs
    u = haar_random_unitary(12, seed + 3)
    occ = np.zeros(12, dtype=int)
    occ[:3] = 1
    q_dist = exact_distribution(u, occ)
    p_dist = distinguishable_distribution(u, occ)
    wins = 0
    for t in range(100):
        outputs = sample_outputs(q_dist, 500, seed * 5000 + t)
        report = likelihood_ratio_test(
            [(tuple(occ), o) for o in outputs], q_dist, p_dist, threshold=5.0
        )
        wins += report.lr_trajectory[-1] > 0
    assert wins >= 95, f"positive drift in only {wins}/100 runs"

    # aggregate statistics are permutation invariant
    u4 = haar_random_unitary(4, seed + 5)
    params = [SourceParams(epsilon=0.4)] * 4
    records = scattershot_run(u4, params, 40_000, 2, seed).records
    base = scattershot_aggregate_validation(records, u4)
    for t in range(cases):
        shuffled = list(records)
        np.random.default_rng(seed * 6000 + t).shuffle(shuffled)
        again = scattershot_aggregate_validation(shuffled, u4)
        assert again.mean_similarity == base.mean_similarity
        assert again.mean_distance == base.mean_distance
        assert again.pooled.verdict == base.pooled.verdict
