"""Exactness of the division solver's two skip paths.

* ``_local_search_fast`` probes every move's min-max solve at the
  incumbent threshold and skips the bisection when the probe fails;
* ``_solve_pipeline_division`` does not start a slow-group enumeration
  walk that :func:`_enumeration_must_truncate` proves would truncate.

Both must leave every :class:`DivisionSolution` unchanged, on the python
and on the numpy kernels.  The truncation bound is also checked against
brute force on small rate multisets: the walk reaches every canonical
assignment, and whenever the bound fires the walk does report
``truncated``.
"""

import itertools
import random

import pytest

from repro.solvers import division
from repro.solvers.division import (
    DivisionProblem,
    _enumerate_slow_assignments,
    _enumeration_must_truncate,
    solve_pipeline_division,
)
from repro.solvers.minmax import clear_minmax_cache, solve_minmax_assignment

KERNELS = ["python", "numpy"]


def random_problem(rng):
    """Division instance with enough slow groups to make walks truncate."""
    dp = rng.randint(2, 8)
    if rng.random() < 0.5:
        slow = [rng.choice([1.3, 2.6, 2.6, 3.8, 5.42])
                for _ in range(rng.randint(0, 14))]
    else:
        slow = [round(rng.uniform(1.1, 6.0), 3)
                for _ in range(rng.randint(0, 9))]
    fast = rng.randint(0, 40)
    if fast + len(slow) < dp:
        fast = dp - len(slow)
    return DivisionProblem(
        num_pipelines=dp,
        total_micro_batches=rng.choice([16, 64, 128, 256]),
        fast_group_count=fast,
        fast_group_rate=1.0,
        slow_group_rates=slow,
    )


def solve(problem, kernels, limit):
    clear_minmax_cache()
    return solve_pipeline_division(problem, enumeration_limit=limit,
                                   kernels=kernels)


def unpruned_minmax(*args, prune_above=None, **kwargs):
    return solve_minmax_assignment(*args, **kwargs)


PROBLEMS = [random_problem(random.Random(seed)) for seed in range(40)]


@pytest.mark.parametrize("kernels", KERNELS)
def test_probe_leaves_solutions_unchanged(monkeypatch, kernels):
    pruned = 0

    def counting_minmax(*args, prune_above=None, **kwargs):
        nonlocal pruned
        solution = solve_minmax_assignment(*args, prune_above=prune_above,
                                           **kwargs)
        pruned += prune_above is not None and not solution.feasible
        return solution

    for problem in PROBLEMS:
        for limit in (40, 2000):
            with monkeypatch.context() as patch:
                patch.setattr(division, "solve_minmax_assignment",
                              counting_minmax)
                probed = solve(problem, kernels, limit)
            with monkeypatch.context() as patch:
                patch.setattr(division, "solve_minmax_assignment",
                              unpruned_minmax)
                full = solve(problem, kernels, limit)
            assert probed == full
    assert pruned  # the probe is exercised, not vacuous


@pytest.mark.parametrize("kernels", KERNELS)
def test_truncation_check_leaves_solutions_unchanged(monkeypatch, kernels):
    fired = 0
    for problem in PROBLEMS:
        for limit in (40, 2000):
            fired += _enumeration_must_truncate(
                problem.slow_group_rates, problem.num_pipelines, limit)
            checked = solve(problem, kernels, limit)
            with monkeypatch.context() as patch:
                patch.setattr(division, "_enumeration_must_truncate",
                              lambda rates, dp, limit: False)
                walked = solve(problem, kernels, limit)
            assert checked == walked
    assert fired  # the check is exercised, not vacuous


def canonical(buckets):
    return tuple(sorted(tuple(sorted(b)) for b in buckets))


def brute_force_canonical(rates, dp):
    """Every canonical assignment, from all ``dp ** n`` labellings."""
    keys = set()
    for labels in itertools.product(range(dp), repeat=len(rates)):
        buckets = [[] for _ in range(dp)]
        for rate, label in zip(rates, labels):
            buckets[label].append(rate)
        keys.add(canonical(buckets))
    return keys


def small_multisets():
    rng = random.Random(7)
    cases = []
    for _ in range(60):
        n = rng.randint(1, 7)
        alphabet = [2.6, 3.8, 5.42][:rng.randint(1, 3)]
        cases.append(([rng.choice(alphabet) for _ in range(n)],
                      rng.randint(1, 4)))
    return cases


def test_walk_reaches_every_canonical_assignment():
    for rates, dp in small_multisets():
        expected = brute_force_canonical(rates, dp)
        assignments, truncated = _enumerate_slow_assignments(
            rates, dp, limit=10 ** 6)
        assert not truncated
        assert {canonical(a) for a in assignments} == expected
        assert len(assignments) == len(expected)


def test_walk_truncates_whenever_the_bound_fires():
    fired = 0
    for rates, dp in small_multisets():
        distinct = len(brute_force_canonical(rates, dp))
        for limit in range(1, distinct + 2):
            if not _enumeration_must_truncate(rates, dp, limit):
                continue
            fired += 1
            assert distinct > limit
            _, truncated = _enumerate_slow_assignments(rates, dp, limit)
            assert truncated
    assert fired
