import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermlab import indexing, semigroup
from hermlab.hermite import basis_state, random_expansion
from hermlab.semigroup import EvolutionSpec, dissipation_tail, evolve

# frozen decay factor of the level-3 mode in one dimension:
# exp(-0.5 * 7^0.6), cross-checked against a 40-digit evaluation
LEVEL3_FACTOR = 0.20047856917460652


def test_spec_validates_exponent_range():
    with pytest.raises(ValueError, match="s must exceed 1/2"):
        EvolutionSpec(s=0.5, dim=1)
    with pytest.raises(ValueError, match="s must not exceed 1"):
        EvolutionSpec(s=1.2, dim=1)


def test_eigenvalue_table():
    spec = EvolutionSpec(s=0.75, dim=2)
    lam = spec.eigenvalues(3)
    levels = indexing.level_of(2, 3)
    assert np.allclose(lam, (2.0 * levels + 2.0) ** 0.75, rtol=1e-15)


def test_frozen_decay_factor():
    f = basis_state(1, 3, (3,))
    g = evolve(f, 0.5, EvolutionSpec(s=0.6, dim=1))
    assert g.coefficient((3,)) == pytest.approx(LEVEL3_FACTOR, abs=5e-16)


def test_zero_time_is_identity(rng):
    f = random_expansion(rng, dim=2, degree=5)
    g = evolve(f, 0.0, EvolutionSpec(s=0.8, dim=2))
    assert np.array_equal(g.coeffs, f.coeffs)


def test_ground_state_heat_decay():
    f = basis_state(1, 0, (0,))
    g = evolve(f, 1.0, EvolutionSpec(s=1.0, dim=1))
    assert g.coefficient((0,)) == pytest.approx(math.exp(-1.0), abs=1e-16)


def test_negative_time_rejected(rng):
    f = random_expansion(rng, dim=1, degree=2)
    spec = EvolutionSpec(s=0.9, dim=1)
    for t in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="time must be finite and non-negative"):
            evolve(f, t, spec)
        with pytest.raises(ValueError, match="time must be finite and non-negative"):
            dissipation_tail(f, 1, t, spec)


def test_dimension_mismatch_rejected(rng):
    f = random_expansion(rng, dim=2, degree=2)
    with pytest.raises(ValueError):
        evolve(f, 0.1, EvolutionSpec(s=0.9, dim=1))


def test_semigroup_law_100_triples(rng):
    spec = EvolutionSpec(s=0.7, dim=1)
    for _ in range(100):
        f = random_expansion(rng, dim=1, degree=8)
        t1, t2 = rng.uniform(0.01, 1.5, size=2)
        a = evolve(evolve(f, t1, spec), t2, spec)
        b = evolve(f, t1 + t2, spec)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12


@settings(deadline=None, max_examples=30)
@given(
    st.floats(min_value=0.51, max_value=1.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.integers(min_value=0, max_value=10**6),
)
def test_contraction(s, t, seed):
    rng = np.random.default_rng(seed)
    f = random_expansion(rng, dim=1, degree=6)
    g = evolve(f, t, EvolutionSpec(s=s, dim=1))
    assert g.norm() <= f.norm() + 1e-14


def test_dissipation_sharp_on_pure_mode():
    spec = EvolutionSpec(s=0.7, dim=1)
    f = basis_state(1, 5, (5,))
    rep = dissipation_tail(f, k=4, t=0.3, spec=spec)
    assert rep.tail_norm == pytest.approx(rep.bound, abs=1e-15)
    assert rep.tail_norm <= rep.weak_bound + 1e-15


def test_dissipation_bound_dominates_random_states(rng):
    for s in (0.6, 1.0):
        spec = EvolutionSpec(s=s, dim=1)
        for _ in range(25):
            f = random_expansion(rng, dim=1, degree=9)
            k = int(rng.integers(0, 9))
            t = float(rng.uniform(0.01, 1.0))
            rep = dissipation_tail(f, k=k, t=t, spec=spec)
            assert rep.tail_norm <= rep.bound * (1 + 1e-12) + 1e-300


def test_weak_bound_uses_plain_level_power():
    spec = EvolutionSpec(s=0.6, dim=1)
    f = basis_state(1, 6, (6,))
    rep = dissipation_tail(f, k=3, t=0.5, spec=spec)
    assert rep.weak_bound == pytest.approx(math.exp(-0.5 * 3.0**0.6), rel=1e-14)
