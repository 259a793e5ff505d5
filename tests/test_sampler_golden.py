"""Golden-bits and oracle tests for the Metropolis sampler.

``GOLDEN`` pins, for small ``sample_equilibrium`` configurations, the sha256
of the raw bytes of ``samples``, the exact ``acceptance`` and
``autocorr_pi1``, and the sha256 of the per-chain means (``chain_means`` in
k order, then ``pair_chain_means`` in key order): a rewrite that keeps the
random stream, the proposals, the accept decisions and the summation order
passes; a change of a single bit in the chain or in a mean fails.  The
configurations reach the sums that numpy takes pairwise (8 or more partners
or particles), beta = 0, with no log term, and N = 1, with no partners.  The
literals hold for this repository's numpy (PCG64 stream, libm log and exp,
pairwise summation) on x86-64; a different numpy or libm may legitimately
change them.

The oracle recomputes the sampler's per-chain moment means from ``samples``
with ``x**k``: pi_k for k <= 2, the pair products among them and the
autocorrelation time must agree bit for bit; pi_k for k >= 3 are built from
repeated products and agree with the ``pow`` oracle up to rounding.

``python tests/test_sampler_golden.py`` prints every configuration's current
values in the form of ``GOLDEN``.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from coulombgas.dyson import InitSpec, _integrated_autocorr, _log_gibbs_delta, sample_equilibrium
from coulombgas.kernel import Potential

HERMITE2 = Potential(2.0, {1: 1.0})
QUARTIC1 = Potential(1.0, {1: 0.5, 3: 0.2})
FREE = Potential(0.0, {1: 1.0})

# name -> (pot, n, sweeps, seed, chains, tau)
CONFIGS = {
    "hermite-n5": (HERMITE2, 5, 4000, 3, 20, None),
    "quartic-n3": (QUARTIC1, 3, 3000, 5, 15, None),
    "tilted-n3": (HERMITE2, 3, 3000, 7, 15, {2: 0.1, 4: 0.05}),
    "quartic-n9": (QUARTIC1, 9, 3000, 9, 15, {1: 0.1}),  # 9 particles: pairwise summation of partners and pi_k
    "hermite-n8": (HERMITE2, 8, 3000, 11, 15, None),  # 8 particles: pairwise pi_k, 7 partners in sequence
    "hermite-n17": (HERMITE2, 17, 2000, 13, 13, None),  # 16 partners: two pairwise blocks of 8
    "free-n4": (FREE, 4, 3000, 15, 15, None),  # beta = 0: no log term
    "hermite-n1": (HERMITE2, 1, 2000, 17, 15, None),  # no partners
}

GOLDEN = {
    "hermite-n5": ("5857214b5dd5567da733f25fb829e263779fb11ac680cf091981f44f5722dfea", 0.2888125, 4.879809330869482, "9fa3c8c440c14cfcd65199b80fba53f7fbd5ccf4e7ab953fed5585ed5652550a"),
    "quartic-n3": ("3755505bb46230dac32d1ce681385365d4f08df619469de40bd2fd97270e4a8b", 0.2916666666666667, 3.344575614069523, "129b84b16e8626cedad672fdb7c0bb388a14a37bb54014393a5a57434874d9f1"),
    "tilted-n3": ("e1d0640b105de6cc476f6434699c845a134f3485d35687af6fd0585ef59a6dd7", 0.27847222222222223, 4.57906232170935, "a36d95cebd2133e84d5f99f56b6b44976ee4cd68b84e03689f8e0c4b70e43f93"),
    "quartic-n9": ("69ad98291be78752d4e8d8f27a00d35141be0a4506a80d68b22eae628628203e", 0.2739814814814815, 2.317479486026364, "9577d5da08e8062f864395c3b272afbaaed3329ddd83b8120f97499021488fd9"),
    "hermite-n8": ("febabda22a472048bb477f9559dd6ad9852c76bd5c53e71f2fe0aae5b34ecc6f", 0.2710416666666667, 4.59727007110749, "e5cdd1a00f84a383987e84c7b77d1f4f39363aa4e3955a3bfe7e1ead90708fad"),
    "hermite-n17": ("c27d7c17b6524f15354cf38ca1d3b9d10cfa7731851a45f1fc3f267a3b65a68a", 0.2985321708420704, 6.480717486117706, "51137b3d031b788d701b9080296321a1da300acccef82622f88cc5c706f980f0"),
    "free-n4": ("c14e3becea3d66829104acb21b4b01e321e36b9213a9214340e09d7ecd1047d7", 0.3232291666666667, 4.855510146942092, "51cde71f22052e52ed7b7330e6583e3c4a0fe82ee2af4b3f2b5987d460557604"),
    "hermite-n1": ("183b0a1f5c9fcabd58052898e5e8d4f7f8f812e6ca234b44ae79483aa6234f3b", 0.39314641744548284, 4.360426521501167, "0f6c37c34018579b1c14d73bfdb89c8cd5cc42f62739358894c04329f0677cad"),
}

# sha256 of InitSpec("equilibrium", seed=3).positions(HERMITE2, 5, 500): the
# engine's only path into the sampler.
EQUILIBRIUM_INIT = "2d749c08270e9508969fe498f42bcc01b9508f4ed437c39857b400486017d9f4"


def _run(name, keep_samples=True):
    pot, n, sweeps, seed, chains, tau = CONFIGS[name]
    return sample_equilibrium(pot, n, sweeps, seed=seed, chains=chains, tau=tau, keep_samples=keep_samples), chains


def _means_digest(eq):
    h = hashlib.sha256()
    for k in sorted(eq.chain_means):
        h.update(eq.chain_means[k].tobytes())
    for key in sorted(eq.pair_chain_means):
        h.update(eq.pair_chain_means[key].tobytes())
    return h.hexdigest()


def _golden(eq):
    return (hashlib.sha256(eq.samples.tobytes()).hexdigest(), eq.acceptance, eq.autocorr_pi1, _means_digest(eq))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sampler_golden_bits(name):
    eq, _ = _run(name)
    assert type(eq.acceptance) is float
    assert _golden(eq) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sampler_without_samples_keeps_the_golden_chain(name):
    """By default no chain state is stored: ``samples`` has one empty row
    per kept chain state, and the acceptance, the autocorrelation time and
    the means keep their golden bits."""
    eq, chains = _run(name, keep_samples=False)
    pot, n, sweeps, seed, _, tau = CONFIGS[name]
    per_chain = max(10, sweeps // chains)
    assert eq.samples.shape == ((per_chain - max(1, per_chain // 5)) * chains, 0)
    assert (eq.acceptance, eq.autocorr_pi1, _means_digest(eq)) == GOLDEN[name][1:]


def test_sampler_without_samples_bounds_its_traced_peak():
    """The N = 5 case of equilibrium-loop (200 000 sweeps over 200 chains,
    800 kept sweeps) peaks below 6 MB when no chain state is kept; storing
    every kept state takes 800 x 200 x 5 floats, 6.4 MB, on top."""
    tracemalloc.start()
    try:
        sample_equilibrium(HERMITE2, 5, 200_000, chains=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_equilibrium_init_golden_bits():
    lam = InitSpec("equilibrium", seed=3).positions(HERMITE2, 5, 500)
    assert hashlib.sha256(lam.tobytes()).hexdigest() == EQUILIBRIUM_INIT


def _sweep_mean(series):
    """Mean over kept sweeps, added one sweep at a time as the sampler does."""
    acc = np.zeros(series.shape[1])
    for row in series:
        acc += row
    return acc / series.shape[0]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_sampler_moments_match_pow_oracle(name):
    eq, chains = _run(name)
    n = eq.samples.shape[1]
    kept = eq.samples.shape[0] // chains
    assert eq.samples.shape == (kept * chains, n)
    pis = [np.sum(eq.samples**k, axis=1).reshape(kept, chains) for k in range(9)]
    assert sorted(eq.chain_means) == list(range(9))
    assert list(eq.pair_chain_means) == [(a, b) for a in range(7) for b in range(a, 7)]

    def agrees(got, want, exact):
        if exact:
            return np.array_equal(got, want)
        return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    for k in range(9):
        assert agrees(eq.chain_means[k], _sweep_mean(pis[k]), k <= 2), k
    for a, b in eq.pair_chain_means:
        assert agrees(eq.pair_chain_means[(a, b)], _sweep_mean(pis[a] * pis[b]), b <= 2), (a, b)
    assert eq.autocorr_pi1 == _integrated_autocorr(pis[1] - pis[1].mean(axis=0, keepdims=True))
    assert eq.tau == (CONFIGS[name][5] or {})


def _replica_major_log_gibbs_delta(pot, tau, pair, others):
    """The sampler's log target ratio with others (chains, n - 1), replica
    major: the form whose bits the particle-major sampler keeps."""
    v = pot.v(pair)
    dv = v[0] - v[1]
    for k, tk in (tau or {}).items():
        pk = pair**k
        dv += tk * (pk[0] - pk[1])
    out = -dv
    if pot.beta != 0.0 and others.shape[1] > 0:
        logs = np.log(np.abs(pair[:, :, None] - others) + 1e-300)
        out += pot.beta * (logs[0] - logs[1]).sum(axis=1)
    return out


@pytest.mark.parametrize("tau", [None, {2: 0.1, 4: 0.05}])
@pytest.mark.parametrize("pot", [HERMITE2, QUARTIC1], ids=["gaussian", "quartic"])
@pytest.mark.parametrize("n", [1, 2, 5, 8, 9, 17])
def test_log_gibbs_delta_matches_replica_major_formula(n, pot, tau):
    """Particle-major partners give the replica-major ratio bit for bit."""
    rng = np.random.default_rng(n)
    chains = 37
    pair = rng.normal(0.0, 2.0, size=(2, chains))
    others = rng.normal(0.0, 2.0, size=(chains, n - 1))
    others[0, :] = pair[1, 0]  # a coincident partner: the 1e-300 floor
    want = _replica_major_log_gibbs_delta(pot, tau, pair, others)
    got = _log_gibbs_delta(pot, tau, pair, np.ascontiguousarray(others.T))
    assert got.tobytes() == want.tobytes()


if __name__ == "__main__":
    for name in CONFIGS:
        print(f"    {name!r}: {_golden(_run(name)[0])!r},")
    lam = InitSpec("equilibrium", seed=3).positions(HERMITE2, 5, 500)
    print(f"EQUILIBRIUM_INIT = {hashlib.sha256(lam.tobytes()).hexdigest()!r}")
