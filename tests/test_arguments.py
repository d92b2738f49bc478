"""The argument contract: counts are integers, rates are positive and finite.

Every entry point refuses a bad count or rate with a ValueError that names
the argument, and takes a valid one as before: a count as an int, a rate
unchanged.
"""

import functools
import math
import re

import numpy as np
import pytest

from gatedq import (ArrivalDistribution, GiModel, MgModel, ServiceDistribution,
                    distributions, giqueue, linsys, mgqueue, simulator,
                    validate)


@functools.cache
def gi():
    m = GiModel(ArrivalDistribution.poisson(0.3), 1.0)
    return m, giqueue.solve_factorial_moments(m)


@functools.cache
def mg():
    m = MgModel(0.5, ServiceDistribution.exponential(1.0))
    return m, mgqueue.solve_stage_moments(m)


@functools.cache
def trace():
    return simulator.simulate_gi(ArrivalDistribution.poisson(0.5), 1.0, 300,
                                 seed=3, burn_in=100)


def oracle():
    return giqueue.factorial_oracle(gi()[0])


def check_drift(min_visits):
    return simulator.drift_check(
        trace(), GiModel(ArrivalDistribution.poisson(0.5), 1.0), min_visits)


@functools.cache
def user_law():
    """The exponential law of rate 2 given as callables, so its table is
    filled by quadrature, not by the closed form."""
    law = ServiceDistribution.exponential(2.0)
    return ServiceDistribution.from_callables(law.pdf, law.cdf, sf=law.sf)


def table_reads(law, reads=("gamma", "gammas", "ratio", "ratios")):
    """(entry, name, call) for each read of the law's min-moment table,
    with the bad value as its m and then as its k; the read "in" asks
    whether the table holds that entry."""
    def call(read, at, v):
        m, k = (v, 2) if at == "m" else (3, v)
        table = law().gamma_table
        return (m, k) in table if read == "in" else getattr(table, read)(m, k)
    return [(f"{law.__name__} {read}", f"min moment {what} {at}",
             functools.partial(call, read, at))
            for read in reads for what, at in (("order", "m"), ("count", "k"))]


def exponential():
    return ServiceDistribution.exponential(2.0)


def simulate_mg(**kw):
    args = dict(lam=0.5, service=ServiceDistribution.exponential(1.0),
                n_stages=200, seed=1)
    return simulator.simulate_mg(**{**args, **kw})


def simulate_gi(**kw):
    args = dict(arrivals=ArrivalDistribution.poisson(0.5), mu=1.0,
                n_stages=200, seed=1)
    return simulator.simulate_gi(**{**args, **kw})


# (entry point, the argument's name in the message, call with a bad value)
COUNTS = [
    ("stationary_pmf", "state i",
     lambda v: giqueue.stationary_pmf(gi()[1], gi()[0], v)),
    ("stationary_pmfs", "state i",
     lambda v: giqueue.stationary_pmfs(gi()[1], gi()[0], [1, v])),
    ("stage_count_pmf", "customer count k",
     lambda v: mgqueue.stage_count_pmf(mg()[1], mg()[0], v)),
    ("transition_probability", "state i",
     lambda v: giqueue.transition_probability(gi()[0], v, 2)),
    ("transition_probability", "state j",
     lambda v: giqueue.transition_probability(gi()[0], 2, v)),
    ("transition_row_mass", "state i",
     lambda v: giqueue.transition_row_mass(gi()[0], v)),
    ("transition_row_mass", "head",
     lambda v: giqueue.transition_row_mass(gi()[0], 3, head=v)),
    ("bhat", "bhat index k", lambda v: gi()[0].bhat(v)),
    ("bhats", "bhat index n", lambda v: gi()[0].bhats(v)),
    ("solve_factorial_moments", "order",
     lambda v: giqueue.solve_factorial_moments(gi()[0], order=v)),
    ("solve_stage_moments", "order",
     lambda v: mgqueue.solve_stage_moments(mg()[0], order=v)),
    ("fixed_point_density", "n_points",
     lambda v: mgqueue.fixed_point_density(mg()[0], n_points=v)),
    ("truncate", "truncation order n", lambda v: linsys.truncate(oracle(), v)),
    ("dominance_report", "order",
     lambda v: linsys.dominance_report(oracle(), v)),
    ("converge", "n_start", lambda v: linsys.converge(oracle(), v, 16, 1e-8)),
    ("converge", "n_max", lambda v: linsys.converge(oracle(), 4, v, 1e-8)),
    ("simulate_mg", "n_stages", lambda v: simulate_mg(n_stages=v)),
    ("simulate_mg", "burn_in", lambda v: simulate_mg(burn_in=v)),
    ("simulate_gi", "n_stages", lambda v: simulate_gi(n_stages=v)),
    ("simulate_gi", "burn_in", lambda v: simulate_gi(burn_in=v)),
    ("empirical_stats", "bins",
     lambda v: simulator.empirical_stats(trace(), bins=v)),
    ("drift_check", "min_visits", check_drift),
    ("min_moment", "min moment order m",
     lambda v: distributions.min_moment(
         ServiceDistribution.exponential(1.0), v, 1)),
    ("min_moment", "min moment count k",
     lambda v: distributions.min_moment(
         ServiceDistribution.exponential(1.0), 1, v)),
    ("tail_support", "min moment count k",
     lambda v: distributions.tail_support(user_law(), 1e-14, v)),
]
# Table reads.  Every read but an exponential law's ratios already refused an
# m or k below 1 in the quadrature's own check, so only those take 0 and -1.
OTHER_COUNTS = (
    [(entry, name, (2.5, math.nan, math.inf, None), call)
     for entry, name, call in table_reads(user_law) + table_reads(exponential)]
    + [(entry, name, (0, -1), call)
       for entry, name, call in table_reads(exponential, ("ratio", "ratios"))]
    + [(entry, name, (2.5, math.nan, math.inf, None, 0, -1), call)
       for entry, name, call in table_reads(user_law, ("in",))
       + table_reads(exponential, ("in",))]
    + [("drift_check", "min_visits", (0,), check_drift)]
)
SEEDS = [
    ("simulate_mg", "seed", lambda v: simulate_mg(seed=v)),
    ("simulate_gi", "seed", lambda v: simulate_gi(seed=v)),
]
RATES = [
    ("exponential", "exponential rate mu", ServiceDistribution.exponential),
    ("poisson", "arrival rate lam", ArrivalDistribution.poisson),
    ("MgModel", "arrival rate lam",
     lambda v: MgModel(v, ServiceDistribution.exponential(1.0))),
    ("GiModel", "service rate mu",
     lambda v: GiModel(ArrivalDistribution.poisson(0.5), v)),
    ("GiModel", "interarrival mean",
     lambda v: GiModel(ArrivalDistribution.deterministic(v), 1.0)),
]
# The simulators' rates at -1 and NaN, and tol and y_max at -1, are left
# out: older comparisons refuse them in the same words (test_simulator.py
# pins the NaN rates), so a case for them would tell nothing.
OTHER_RATES = [
    ("simulate_mg", "arrival rate", (math.inf, None),
     lambda v: simulate_mg(lam=v)),
    ("simulate_gi", "service rate", (math.inf, None),
     lambda v: simulate_gi(mu=v)),
    ("converge", "tol", (math.nan, math.inf, None),
     lambda v: linsys.converge(oracle(), 4, 16, v)),
    ("empirical_stats", "y_max", (math.nan, math.inf),
     lambda v: simulator.empirical_stats(trace(), y_max=v)),
    ("fixed_point_density", "y_max", (math.nan, math.inf, -1),
     lambda v: mgqueue.fixed_point_density(mg()[0], n_points=8, y_max=v)),
    ("tail_support", "tail level eps", (math.nan, math.inf, -1, 0, None),
     lambda v: distributions.tail_support(user_law(), v)),
    ("support_end", "support bound y", (math.nan, math.inf, -1, None),
     lambda v: distributions.support_end(user_law(), v)),
    # A law with mu = None has no rate; a rate that is set is checked.
    ("ServiceDistribution", "exponential rate mu", (math.nan, math.inf, 0, -1),
     lambda v: ServiceDistribution(user_law().pdf, user_law().cdf, mu=v)),
]

INTEGER = r"an integer( >= \d+)?"
CASES = (
    [(entry, name, INTEGER, call, v) for entry, name, call in COUNTS
     for v in (2.5, math.nan, math.inf, -1, None)]
    + [(entry, name, INTEGER, call, v) for entry, name, call in SEEDS
       for v in (2.5, math.nan, math.inf, None)]
    + [(entry, name, INTEGER, call, v)
       for entry, name, values, call in OTHER_COUNTS for v in values]
    + [(entry, name, "(positive|finite)", call, v)
       for entry, name, call in RATES
       for v in (math.nan, math.inf, -1, None)]
    + [(entry, name, "(positive|finite)", call, v)
       for entry, name, values, call in OTHER_RATES for v in values]
    + [("pgf", "pgf argument z", r"in \[0, 1\]",
        lambda v: giqueue.pgf(gi()[1], gi()[0], v), v) for v in (None, "0.5")]
)


@pytest.mark.parametrize(
    "entry,name,requirement,call,bad", CASES,
    ids=[f"{entry}-{name}-{bad!r}" for entry, name, _, _, bad in CASES])
def test_a_bad_argument_is_refused_by_name(entry, name, requirement, call,
                                           bad):
    with pytest.raises(ValueError,
                       match=f"^{re.escape(name)} must be {requirement}, "
                             f"got {re.escape(repr(bad))}$"):
        call(bad)


def test_numpy_integer_and_bool_counts_are_taken_as_ints():
    m, sol = gi()
    assert (giqueue.transition_probability(m, np.int64(3), np.int32(2))
            == giqueue.transition_probability(m, 3, 2))
    assert giqueue.stationary_pmf(sol, m, True) == giqueue.stationary_pmf(
        sol, m, 1)
    assert m.bhat(np.uint8(2)) == m.bhat(2) and m.bhat(False) == 1.0
    mm, msol = mg()
    assert (mgqueue.stage_count_pmf(msol, mm, np.int64(2))
            == mgqueue.stage_count_pmf(msol, mm, 2))
    for law in (user_law(), exponential()):
        table = law.gamma_table
        assert table.gammas(True, 1) == table.gammas(1, 1) == table.gamma(1, 1)
        # A law given as callables stores what it reads; an exponential law
        # reads its closed form and stores nothing.
        stored = law.mu is None
        assert ((True, 1) in table) is ((1, True) in table) is stored
        assert ((np.int64(1), 1) in table) is stored and (1, 40) not in table
        assert table.ratios(np.int32(3), [True]) == [1.0]
    system = linsys.truncate(oracle(), np.int64(5))
    assert system.n == 5 and type(system.n) is int
    tr = simulate_mg(seed=np.int64(7), n_stages=np.int32(200))
    want = simulate_mg(seed=7)
    assert tr.seed == 7 and type(tr.seed) is int
    assert all(np.array_equal(getattr(tr, c), getattr(want, c))
               for c in ("y", "m", "k", "waiting"))


def test_zero_spacing_and_zero_mean_laws_stay_constructible_and_flagged():
    for law in (ArrivalDistribution.deterministic(0),
                ArrivalDistribution.from_callables(
                    None, lambda s: 1.0, 0.0, 0.0)):
        assert not validate(law).ok
        with pytest.raises(ValueError, match="interarrival mean must be "
                                             "positive, got 0"):
            GiModel(law, 1.0)


def test_an_int_rate_keeps_its_type():
    law = ServiceDistribution.exponential(2)
    assert law.mu == 2 and type(law.mu) is int
    m = MgModel(1, law)
    assert type(m.lam) is int
    assert type(ArrivalDistribution.poisson(3).lam) is int
    assert type(GiModel(ArrivalDistribution.poisson(3), 4).mu) is int
    assert type(mgqueue.solve_stage_moments(m).to_dict()["lam"]) is int
