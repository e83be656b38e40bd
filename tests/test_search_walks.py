"""Pinned toy walks of the two evolutionary engines, solo and lock-stepped.

``EvolutionEngine`` and ``NSGA2Engine`` share one (mu + lambda) loop
body, an ask/tell stepper (``steps()``), and
:func:`repro.optim.evolution.evolve_together` steps it and scores each
round through the evaluation memo; ``run()`` is ``evolve_together``
over one engine. The walks below were recorded before the two engines
shared that loop, so they pin the RNG draw order of each child
(select, then the operator choice, then the operator), the survivor
sorts, the memo accounting and the stopping rules:

- a full run, a run stopped by ``patience`` and runs whose broods are
  all duplicates of the population (empty rounds);
- ``run()`` against ``evolve_together`` called on the one engine,
  results and reports;
- every case's engine run by ``evolve_together`` at once (the DSE's
  lock-stepped EA waves) through one shared memo, which must keep every
  pinned walk, counts included, with one scorer call per round;
- ``evolve_together``'s checks: no engines, engines with private
  memos, and a scorer that returns too few or too many values; and
  ``run()`` on an engine built without a scorer of its own.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.optim.evolution import EvolutionEngine, evolve_together
from repro.optim.nsga import NSGA2Engine


def _flip(gene, rng):
    index = rng.randrange(len(gene))
    out = list(gene)
    out[index] ^= 1
    return tuple(out)


def _swap(gene, rng):
    i, j = rng.randrange(len(gene)), rng.randrange(len(gene))
    out = list(gene)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def _same(gene, _rng):
    return gene


def _fitness(gene):
    """Weighted onemax shifted below zero at the start, so the walk
    crosses the selector's rank-weighting floor."""
    return float(sum((i + 1) * bit for i, bit in enumerate(gene))) - 10.0


def _objectives(gene):
    """Index-weighted ones against the count of ones: one front point
    per count."""
    return (
        float(sum((i + 1) * bit for i, bit in enumerate(gene))),
        -float(sum(gene)),
    )


def _bits(text):
    return tuple(int(c) for c in text)


#: name -> (engine keyword arguments, mutation operators, initial genes)
EA_CASES = {
    "full": (
        dict(population_size=6, offspring_per_gen=5, max_generations=12),
        [_flip, _swap],
        [_bits("00000000"), _bits("10000000"), _bits("00000000")],
    ),
    "patience": (
        dict(population_size=4, offspring_per_gen=3, max_generations=50,
             patience=3),
        [_flip, _swap],
        [_bits("11111110"), _bits("01111111")],
    ),
    "duplicates": (
        dict(population_size=3, offspring_per_gen=4, max_generations=5),
        [_same],
        [_bits("00110000"), _bits("00000011"), _bits("11000000"),
         _bits("00001100")],
    ),
    "duplicates-patience": (
        dict(population_size=2, offspring_per_gen=2, max_generations=10,
             patience=2),
        [_same, _same],
        [_bits("00000001")],
    ),
}

NSGA_CASES = {
    "full": (
        dict(population_size=6, offspring_per_gen=6, max_generations=10),
        [_flip, _swap],
        [_bits("00000000"), _bits("11111111"), _bits("10000000"),
         _bits("10000000"), _bits("00000001"), _bits("01010101"),
         _bits("00110011"), _bits("11110000")],
    ),
    "small": (
        dict(population_size=3, offspring_per_gen=2, max_generations=7),
        [_flip],
        [_bits("00011000")],
    ),
    "duplicates": (
        dict(population_size=4, offspring_per_gen=3, max_generations=4),
        [_same],
        [_bits("00000011"), _bits("11000000"), _bits("00111100")],
    ),
}


def _ea(name, score=None, seed=11, **memo):
    kwargs, mutations, _initial = EA_CASES[name]
    return EvolutionEngine(
        score=score or (lambda genes: [_fitness(g) for g in genes]),
        mutations=mutations,
        gene_key=lambda gene: gene,
        rng=random.Random(seed),
        **kwargs,
        **memo,
    )


def _nsga(name, score=None, seed=11, **memo):
    kwargs, mutations, _initial = NSGA_CASES[name]
    return NSGA2Engine(
        score=score or (lambda genes: [_objectives(g) for g in genes]),
        mutations=mutations,
        gene_key=lambda gene: gene,
        rng=random.Random(seed),
        **kwargs,
        **memo,
    )


def _ea_record(result, report):
    gene, fitness = result
    return (
        "".join(map(str, gene)), fitness, report.generations,
        report.best_fitness_history, report.evaluations,
        report.cache_hits,
    )


def _nsga_record(front, report):
    return (
        [("".join(map(str, gene)), vector) for gene, vector in front],
        report.generations, report.front_size_history,
        report.evaluations, report.cache_hits,
    )


def _ea_walk(name):
    engine = _ea(name)
    return _ea_record(engine.run(list(EA_CASES[name][2])), engine.report)


def _nsga_walk(name):
    engine = _nsga(name)
    return _nsga_record(
        engine.run(list(NSGA_CASES[name][2])), engine.report
    )


EA_WALKS = {
    # (best gene, fitness, generations, best_fitness_history,
    #  evaluations, cache_hits)
    "full": (
        "11011011", 17.0, 12,
        [-3.0, 0.0, 7.0, 7.0, 8.0, 12.0] + [17.0] * 6, 34, 3,
    ),
    "patience": (
        "11111111", 26.0, 6, [25.0, 25.0, 26.0, 26.0, 26.0, 26.0], 12, 1,
    ),
    "duplicates": ("00000011", 5.0, 5, [5.0] * 5, 4, 0),
    "duplicates-patience": ("00000001", -2.0, 2, [-2.0, -2.0], 1, 0),
}

NSGA_WALKS = {
    # (front, generations, front_size_history, evaluations, cache_hits)
    "full": (
        [("11111111", (36.0, -8.0)), ("01111011", (29.0, -6.0)),
         ("01101011", (25.0, -5.0)), ("00010011", (19.0, -3.0)),
         ("00000001", (8.0, -1.0)), ("00000000", (0.0, -0.0))],
        10, [6] * 10, 34, 12,
    ),
    "small": (
        [("11011010", (19.0, -5.0)), ("10011000", (10.0, -3.0)),
         ("00000000", (0.0, -0.0))],
        7, [3] * 7, 11, 2,
    ),
    "duplicates": (
        [("00111100", (18.0, -4.0)), ("00000011", (15.0, -2.0))],
        4, [2] * 4, 3, 0,
    ),
}


@pytest.mark.parametrize("name", sorted(EA_CASES))
def test_evolution_walk_pinned(name):
    assert _ea_walk(name) == EA_WALKS[name]


@pytest.mark.parametrize("name", sorted(NSGA_CASES))
def test_nsga_walk_pinned(name):
    assert _nsga_walk(name) == NSGA_WALKS[name]


#: kind -> (cases, engine factory, value of a gene)
KINDS = {
    "evolution": (EA_CASES, _ea, _fitness),
    "nsga": (NSGA_CASES, _nsga, _objectives),
}

EVERY_CASE = [
    (kind, name) for kind, (cases, _make, _value_of) in KINDS.items()
    for name in sorted(cases)
]


@pytest.mark.parametrize(
    "kind, name", EVERY_CASE, ids=[f"{k}-{n}" for k, n in EVERY_CASE]
)
def test_run_is_evolve_together_over_one_engine(kind, name):
    """``run()`` returns what ``evolve_together`` returns for the one
    engine, and leaves the same report."""
    cases, make, value_of = KINDS[kind]
    solo, driven = make(name), make(name)
    result = solo.run(list(cases[name][2]))
    assert evolve_together(
        [driven], [list(cases[name][2])],
        lambda genes, lanes: [value_of(gene) for gene in genes],
    ) == [result]
    assert driven.report == solo.report


@pytest.mark.parametrize("cases, make, value_of, record, walks", [
    (EA_CASES, _ea, _fitness, _ea_record, EA_WALKS),
    (NSGA_CASES, _nsga, _objectives, _nsga_record, NSGA_WALKS),
], ids=["evolution", "nsga"])
def test_evolve_together_keeps_each_pinned_walk(
    cases, make, value_of, record, walks
):
    """``evolve_together`` runs every case's engine at once, through
    one memo (each engine under its own keys) and one scorer call per
    round: each engine returns its pinned solo walk, counts included,
    and only memo misses reach the scorer."""
    memo, calls = {}, []

    def score(genes, lanes):
        calls.append(len(genes))
        assert len(lanes) == len(genes)
        return [value_of(gene) for gene in genes]

    names = sorted(cases)
    engines = [
        make(name, cache=memo, cache_key=lambda gene, name=name: (
            name, gene
        ))
        for name in names
    ]
    results = evolve_together(
        engines, [list(cases[name][2]) for name in names], score
    )
    for name, engine, result in zip(names, engines, results):
        assert record(result, engine.report) == walks[name]
    assert len(calls) <= 1 + max(e.report.generations for e in engines)
    assert sum(calls) == len(memo) == sum(
        engine.report.evaluations for engine in engines
    )


def test_evolve_together_needs_one_memo():
    engines = [_ea("full"), _ea("patience")]  # a private memo each
    with pytest.raises(ConfigurationError, match="share one memo"):
        evolve_together(
            engines,
            [list(EA_CASES[name][2]) for name in ("full", "patience")],
            lambda genes, lanes: [_fitness(gene) for gene in genes],
        )


def test_all_duplicate_broods_are_empty_rounds():
    """A stepper whose children all repeat the population yields empty
    broods; it still advances a generation per round."""
    engine = _ea("duplicates")
    stepper = engine.steps(list(EA_CASES["duplicates"][2]))
    initial = next(stepper)
    assert len(initial) == 4
    assert stepper.send([_fitness(gene) for gene in initial]) == []
    for generation in range(1, 5):
        assert engine.report.generations == generation - 1
        assert stepper.send([]) == []
    with pytest.raises(StopIteration) as finished:
        stepper.send([])
    assert finished.value.value == (_bits("00000011"), 5.0)
    assert engine.report.generations == 5


def test_evolve_together_without_engines():
    assert evolve_together([], [], lambda genes, lanes: []) == []


@pytest.mark.parametrize(
    "engine_type", [EvolutionEngine, NSGA2Engine], ids=["evolution", "nsga"]
)
def test_run_needs_the_engines_score(engine_type):
    """An engine built without ``score``, as the DSE builds the
    launches ``evolve_together`` scores, refuses a solo ``run()``."""
    engine = engine_type(
        score=None, mutations=[_flip], gene_key=lambda gene: gene,
        rng=random.Random(0),
    )
    with pytest.raises(ConfigurationError, match="needs the engine's"):
        engine.run([_bits("00000000")])


def _miscount(values, delta):
    """``values`` with one value dropped (``delta`` -1) or repeated
    (+1)."""
    return values[:-1] if delta < 0 else values + values[:1]


@pytest.mark.parametrize("delta", [-1, 1], ids=["too-few", "too-many"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_miscounting_scorer_names_both_counts(kind, delta):
    """A scorer that returns one value too few or too many stops the
    search with both counts named, whether it scores one engine's
    ``run()`` or the lock-stepped rounds of every case's engine."""
    cases, make, value_of = KINDS[kind]
    names = sorted(cases)
    # The first round scores each initial population's distinct genes.
    first = len(set(cases["full"][2]))
    every = sum(len(set(cases[name][2])) for name in names)

    engine = make(
        "full",
        score=lambda genes: _miscount([value_of(g) for g in genes], delta),
    )
    message = f"returned {first + delta} values for {first} genes"
    with pytest.raises(ConfigurationError, match=message):
        engine.run(list(cases["full"][2]))

    memo = {}
    engines = [
        make(name, cache=memo, cache_key=lambda gene, name=name: (
            name, gene
        ))
        for name in names
    ]
    message = f"returned {every + delta} values for {every} genes"
    with pytest.raises(ConfigurationError, match=message):
        evolve_together(
            engines, [list(cases[name][2]) for name in names],
            lambda genes, lanes: _miscount(
                [value_of(g) for g in genes], delta
            ),
        )
