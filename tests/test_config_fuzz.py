"""Configuration fuzzing: any solver configuration must stay correct.

Sweeps random combinations of every solver knob (policy, reduce
schedule, clause protection, restart unit) against the brute-force
oracle on small random formulas.  Interactions between features are
exactly where soundness bugs hide.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.cnf import random_ksat
from repro.policies import DefaultPolicy, FrequencyPolicy
from repro.solver import Solver, SolverConfig, Status, brute_force_status

CONFIG_SPACE = st.fixed_dictionaries(
    {
        "reduce_interval": st.sampled_from([1, 5, 50]),
        "reduce_fraction": st.sampled_from([0.25, 0.5, 1.0]),
        "keep_glue": st.sampled_from([0, 2]),
        "protect_used": st.booleans(),
        "luby_base": st.sampled_from([1, 3, 100]),
    }
)


@st.composite
def formulas(draw):
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    m = rng.randint(1, 36)
    return random_ksat(n, m, k=min(3, n), seed=seed)


@settings(max_examples=150, deadline=None)
@given(formulas(), CONFIG_SPACE, st.booleans())
def test_any_configuration_matches_oracle(cnf, config_kwargs, use_frequency):
    expected = brute_force_status(cnf)
    policy = FrequencyPolicy() if use_frequency else DefaultPolicy()
    config = SolverConfig(**config_kwargs)
    result = Solver(cnf, policy=policy, config=config).solve()
    assert result.status is expected
    if result.status is Status.SATISFIABLE:
        assert cnf.check_model(result.model)

