"""Evolutionary algorithm engine (Alg. 2's skeleton).

A (mu + lambda) evolutionary loop with fitness-proportionate parent
selection and caller-supplied mutation operators. Alg. 2's two mutation
mechanisms (``mutate_num`` and ``mutate_share``) are passed in as a list;
each child applies one operator chosen uniformly at random, which matches
the algorithm's "apply mutation related to #macros / macro-sharing"
pair of steps.

The loop body is :class:`MuPlusLambda`, which the scalar EA here and
NSGA-II (:mod:`repro.optim.nsga`) share. It is an ask/tell stepper: it
yields each generation's genes and receives their values.
:func:`evolve_together` steps many engines at once, scoring each round
of all of them through one call of the evaluation memo
(:func:`repro.optim.memo.score_through_memo`); the DSE executor runs
the EA launches of a wave that way, and ``run()`` is the same loop
over one engine.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import (
    Callable,
    Generator,
    Generic,
    Hashable,
    List,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.errors import ConfigurationError
from repro.optim.memo import score_through_memo
from repro.utils.rng import randbelow

Gene = TypeVar("Gene")
Value = TypeVar("Value")


@dataclass
class EvolutionReport:
    """Search telemetry for ablation benches and tests.

    ``evaluations`` counts the genes ``score`` computed (equivalently:
    memo misses); ``cache_hits`` counts lookups served from the memo
    instead (the EA re-visits genes, and a memo pre-filled from an
    interrupted run replays its EA runs for free).
    """

    generations: int = 0
    evaluations: int = 0
    cache_hits: int = 0
    best_fitness_history: List[float] = field(default_factory=list)


class MuPlusLambda(Generic[Gene, Value]):
    """The (mu + lambda) loop both evolutionary engines share.

    Parameters
    ----------
    score:
        Population scorer: maps a gene sequence to one value per gene.
        :meth:`run` scores whole generations (the initial population
        and each brood) through :func:`repro.optim.memo.
        score_through_memo`, so only genes missing from the memo reach
        it. None for an engine that only :func:`evolve_together` steps
        with its own scorer (the DSE's launches).
    mutations:
        Operators ``(gene, rng) -> gene``; must return valid genes
        ("the generated children always obey the defined rules").
    population_size / offspring_per_gen / max_generations:
        Standard (mu + lambda) knobs; Alg. 2's ``MaxEAIterations``.
    cache:
        Optional externally owned mapping used as the memo. By default
        each engine keeps a private dict; the DSE executor passes its
        task runner's dict, which a resumed synthesis pre-fills from
        the interrupted run's memo.
    cache_key:
        Key function for ``cache`` entries. Defaults to ``gene_key``;
        a shared cache must use a content key that also identifies the
        evaluation context (model, hardware params, design point).

    Subclasses set ``report_type`` and supply four hooks over
    ``(gene, value)`` lists: ``_selector(population)``, one generation's
    zero-argument parent picker; ``_survivors(population)``, the
    truncation to ``population_size``; ``_advance(parents,
    population)``, a finished generation's bookkeeping, True to stop;
    and ``_result(population)``, what :meth:`steps` returns.
    """

    report_type: type

    def __init__(
        self,
        score: Optional[Callable[[Sequence[Gene]], Sequence[Value]]],
        mutations: List[Callable[[Gene, random.Random], Gene]],
        gene_key: Callable[[Gene], Hashable],
        rng: random.Random,
        population_size: int = 16,
        offspring_per_gen: int = 16,
        max_generations: int = 20,
        cache: Optional[MutableMapping] = None,
        cache_key: Optional[Callable[[Gene], Hashable]] = None,
    ) -> None:
        if population_size < 1:
            raise ConfigurationError("population_size must be >= 1")
        if offspring_per_gen < 1:
            raise ConfigurationError("offspring_per_gen must be >= 1")
        if max_generations < 1:
            raise ConfigurationError("max_generations must be >= 1")
        if not mutations:
            raise ConfigurationError("at least one mutation operator needed")
        self.score = score
        self.mutations = list(mutations)
        self.gene_key = gene_key
        self.rng = rng
        self.population_size = population_size
        self.offspring_per_gen = offspring_per_gen
        self.max_generations = max_generations
        self.report = self.report_type()
        self._cache: MutableMapping = cache if cache is not None else {}
        self._cache_key = cache_key if cache_key is not None else gene_key

    def steps(
        self, initial_population: List[Gene]
    ) -> Generator[List[Gene], List[Value], object]:
        """Evolve from ``initial_population`` as an ask/tell stepper.

        Yields the initial population, then each generation's brood,
        and expects their values sent back in order
        (:func:`evolve_together` does so, for one engine in :meth:`run`
        or for many at once). A brood holds only children new to the
        population, so it may be empty. Scoring consumes no randomness,
        so the walk does not depend on which memo scores the rounds.
        """
        if not initial_population:
            raise ConfigurationError("initial population must be non-empty")
        genes = list(initial_population)
        population = self._survivors(list(zip(genes, (yield genes))))
        for _generation in range(self.max_generations):
            # Generate the whole brood first: selection only reads the
            # parent population and scoring consumes no randomness, so
            # one scoring round per generation preserves the exact RNG
            # stream (and results) of child-at-a-time scoring.
            select = self._selector(population)
            brood: List[Gene] = []
            seen = {self.gene_key(g) for g, _ in population}
            for _ in range(self.offspring_per_gen):
                parent = select()
                # rng.choice(self.mutations)'s draw.
                operator = self.mutations[
                    randbelow(self.rng, len(self.mutations))
                ]
                child = operator(parent, self.rng)
                key = self.gene_key(child)
                if key not in seen:
                    seen.add(key)
                    brood.append(child)
            parents = population
            population = self._survivors(
                parents + list(zip(brood, (yield brood)))
            )
            self.report.generations += 1
            if self._advance(parents, population):
                break
        return self._result(population)

    def run(self, initial_population: List[Gene]):
        """Evolve from ``initial_population`` alone, scoring through the
        memo: :func:`evolve_together` over this engine."""
        if self.score is None:
            raise ConfigurationError("run() needs the engine's score")
        return evolve_together(
            [self], [initial_population],
            lambda genes, _lanes: self.score(genes),
        )[0]


def evolve_together(
    engines: Sequence[MuPlusLambda],
    populations: Sequence[List[Gene]],
    score: Callable[[List[Gene], List[int]], Sequence[Value]],
) -> list:
    """Run ``engines`` from ``populations`` in lock-step; return what
    each engine's :meth:`~MuPlusLambda.steps` returns, in order.

    Each round, the genes of every live engine go through one call of
    the memo body (:func:`repro.optim.memo.score_through_memo`), each
    under its engine's ``cache_key`` and counted in its engine's
    report, and their misses reach one ``score(genes, lanes)`` call:
    ``lanes[k]`` is the position in ``engines`` of the engine that bred
    ``genes[k]``. Each engine is then sent its own values, and an
    engine that finishes drops out. The engines must share one memo.
    Scoring consumes no randomness, so each engine walks as it does
    alone, given a ``score`` whose value for a gene does not depend on
    the other genes in the call. Its counts are its solo ones too,
    except that a key an earlier engine misses in the same round is a
    hit for a later one, as if it ran after. A ``score`` that returns a
    different number of values than it was given genes raises
    :class:`ConfigurationError`.
    """
    if not engines:
        return []
    memo = engines[0]._cache
    if any(engine._cache is not memo for engine in engines):
        raise ConfigurationError("lock-stepped engines must share one memo")
    steppers = [
        engine.steps(population)
        for engine, population in zip(engines, populations)
    ]
    results: list = [None] * len(steppers)
    replies: list = [(lane, None) for lane in range(len(steppers))]
    while replies:
        pending, items = [], []
        for lane, reply in replies:
            try:
                genes = steppers[lane].send(reply)
            except StopIteration as finished:
                results[lane] = finished.value
                continue
            pending.append((lane, len(genes)))
            items.extend((lane, gene) for gene in genes)
        values = score_through_memo(
            items,
            lambda misses: score(
                [gene for _, gene in misses], [lane for lane, _ in misses]
            ),
            memo,
            lambda item: engines[item[0]]._cache_key(item[1]),
            lambda item: engines[item[0]].report,
        )
        replies, start = [], 0
        for lane, count in pending:
            replies.append((lane, values[start:start + count]))
            start += count
    return results


class EvolutionEngine(MuPlusLambda[Gene, float]):
    """Maximize fitness over genes under mutation operators.

    ``score`` maps a gene sequence to one fitness per gene, larger is
    better (accelerator performance in §IV-C2). The DSE steps its
    launches with :func:`evolve_together`, scoring each round of a
    chunk's launches through :class:`repro.core.macro_partition.
    PopulationScorer`. The other parameters are
    :class:`MuPlusLambda`'s, plus ``patience``: stop once that many
    generations in a row fail to raise the best fitness.

    Parents are picked fitness-proportionately, and the survivors are
    the fittest ``population_size`` under a stable descending sort, so
    the head of the population is the best gene found. :meth:`run`
    returns it as ``(gene, fitness)``.
    """

    report_type = EvolutionReport

    def __init__(
        self, *args, patience: Optional[int] = None, **kwargs
    ) -> None:
        super().__init__(*args, **kwargs)
        self.patience = patience

    def steps(self, initial_population: List[Gene]):
        self._stale = 0
        return super().steps(initial_population)

    def _selector(self, population):
        """Fitness-proportionate parent picks over one generation's
        population, with a floor for non-positive fitness values (rank
        weights instead). The running weight sums are built once; each
        pick draws one ``rng.random()`` and bisects them."""
        fitnesses = [f for _, f in population]
        if min(fitnesses) <= 0:
            # Rank weights, mapped back to population positions.
            order = sorted(range(len(population)), key=lambda i: fitnesses[i])
            weights = [0.0] * len(population)
            for rank, pos in enumerate(order):
                weights[pos] = rank + 1
        else:
            weights = fitnesses
        total = sum(weights)
        running = list(accumulate(weights, initial=0.0))[1:]
        genes = [gene for gene, _ in population]
        last = len(genes) - 1

        def select() -> Gene:
            # The first gene whose running sum reaches the pick.
            pick = self.rng.random() * total
            return genes[min(bisect_left(running, pick), last)]

        return select

    def _survivors(self, population):
        population.sort(key=lambda pair: pair[1], reverse=True)
        return population[: self.population_size]

    def _advance(self, parents, population):
        # The sort is stable and parents survive, so the head only
        # changes to a strictly fitter child.
        self._stale = (
            0 if population[0][1] > parents[0][1] else self._stale + 1
        )
        self.report.best_fitness_history.append(population[0][1])
        return self.patience is not None and self._stale >= self.patience

    def _result(self, population) -> Tuple[Gene, float]:
        return population[0]
