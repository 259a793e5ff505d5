"""Golden-bits and oracle tests for the Metropolis sampler.

``GOLDEN`` pins, for three small ``sample_equilibrium`` configurations, the
sha256 of the raw bytes of ``samples`` and the exact ``acceptance`` and
``autocorr_pi1``: a rewrite that keeps the random stream, the proposals and
the accept decisions passes; a change of a single bit in the chain fails.
The literals hold for this repository's numpy (PCG64 stream, libm log and
exp) on x86-64; a different numpy or libm may legitimately change them.

The oracle recomputes the sampler's per-chain moment means from ``samples``
with ``x**k``: pi_k for k <= 2, the pair products among them and the
autocorrelation time must agree bit for bit; pi_k for k >= 3 are built from
repeated products and agree with the ``pow`` oracle up to rounding.
"""

import hashlib

import numpy as np
import pytest

from coulombgas.dyson import _integrated_autocorr, sample_equilibrium
from coulombgas.kernel import Potential

HERMITE2 = Potential(2.0, {1: 1.0})
QUARTIC1 = Potential(1.0, {1: 0.5, 3: 0.2})

# name -> (pot, n, sweeps, seed, chains, tau)
CONFIGS = {
    "hermite-n5": (HERMITE2, 5, 4000, 3, 20, None),
    "quartic-n3": (QUARTIC1, 3, 3000, 5, 15, None),
    "tilted-n3": (HERMITE2, 3, 3000, 7, 15, {2: 0.1, 4: 0.05}),
    "quartic-n9": (QUARTIC1, 9, 3000, 9, 15, {1: 0.1}),  # 9 particles: pairwise summation of the pi_k
}

GOLDEN = {
    "hermite-n5": ("5857214b5dd5567da733f25fb829e263779fb11ac680cf091981f44f5722dfea", 0.2888125, 4.879809330869482),
    "quartic-n3": ("3755505bb46230dac32d1ce681385365d4f08df619469de40bd2fd97270e4a8b", 0.2916666666666667, 3.344575614069523),
    "tilted-n3": ("e1d0640b105de6cc476f6434699c845a134f3485d35687af6fd0585ef59a6dd7", 0.27847222222222223, 4.57906232170935),
}


def _run(name):
    pot, n, sweeps, seed, chains, tau = CONFIGS[name]
    return sample_equilibrium(pot, n, sweeps, seed=seed, chains=chains, tau=tau), chains


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sampler_golden_bits(name):
    eq, _ = _run(name)
    digest, acceptance, autocorr = GOLDEN[name]
    assert hashlib.sha256(eq.samples.tobytes()).hexdigest() == digest
    assert type(eq.acceptance) is float and eq.acceptance == acceptance
    assert eq.autocorr_pi1 == autocorr


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
