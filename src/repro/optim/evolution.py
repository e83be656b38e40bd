"""Evolutionary algorithm engine (Alg. 2's skeleton).

A (mu + lambda) evolutionary loop with fitness-proportionate parent
selection and caller-supplied mutation operators. Alg. 2's two mutation
mechanisms (``mutate_num`` and ``mutate_share``) are passed in as a list;
each child applies one operator chosen uniformly at random, which matches
the algorithm's "apply mutation related to #macros / macro-sharing"
pair of steps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
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

Gene = TypeVar("Gene")


@dataclass
class EvolutionReport:
    """Search telemetry for ablation benches and tests.

    ``evaluations`` counts actual fitness calls (equivalently: memo
    misses); ``cache_hits`` counts lookups served from the memo cache
    instead (the EA re-visits genes, and with an externally shared
    cache whole EA runs can be replayed for free when the DSE
    re-visits a design point).
    """

    generations: int = 0
    evaluations: int = 0
    cache_hits: int = 0
    best_fitness_history: List[float] = field(default_factory=list)


class EvolutionEngine(Generic[Gene]):
    """Maximize ``fitness`` over genes under mutation operators.

    Parameters
    ----------
    fitness:
        Larger is better (accelerator performance in §IV-C2). Evaluations
        are memoized by ``gene_key`` because the EA re-visits genes and
        each evaluation runs the full components-allocation stage.
    mutations:
        Operators ``(gene, rng) -> gene``; must return valid genes
        ("the generated children always obey the defined rules").
    population_size / offspring_per_gen / max_generations:
        Standard (mu + lambda) knobs; Alg. 2's ``MaxEAIterations``.
    cache:
        Optional externally owned mapping used as the fitness memo. By
        default each engine keeps a private dict; the DSE executor
        passes one :class:`repro.core.executor.EvaluationCache` shared
        across every EA run so re-visited (design point, gene) tuples
        never re-run the component-allocation stage.
    cache_key:
        Key function for ``cache`` entries. Defaults to ``gene_key``;
        a shared cache must use a content key that also identifies the
        evaluation context (model, hardware params, design point).
    batch_fitness:
        Optional population-level fitness: maps a gene sequence to the
        same values ``fitness`` would return gene by gene. When set,
        whole generations (the initial population and each
        generation's offspring) are scored in one call — the batched
        engine of :mod:`repro.core.batch_eval` plugs in here when numpy
        imports (:mod:`repro.core.backend`). The memo is consulted
        first, so cached genes are never re-evaluated and
        hit/miss accounting matches the scalar path exactly. Because
        evaluation consumes no randomness, batched and scalar runs walk
        identical RNG streams and return identical results.
    """

    def __init__(
        self,
        fitness: Callable[[Gene], float],
        mutations: List[Callable[[Gene, random.Random], Gene]],
        gene_key: Callable[[Gene], Hashable],
        rng: random.Random,
        population_size: int = 16,
        offspring_per_gen: int = 16,
        max_generations: int = 20,
        patience: Optional[int] = None,
        cache: Optional[MutableMapping] = None,
        cache_key: Optional[Callable[[Gene], Hashable]] = None,
        batch_fitness: Optional[
            Callable[[Sequence[Gene]], Sequence[float]]
        ] = None,
    ) -> None:
        if population_size < 1:
            raise ConfigurationError("population_size must be >= 1")
        if offspring_per_gen < 1:
            raise ConfigurationError("offspring_per_gen must be >= 1")
        if max_generations < 1:
            raise ConfigurationError("max_generations must be >= 1")
        if not mutations:
            raise ConfigurationError("at least one mutation operator needed")
        self.fitness = fitness
        self.mutations = list(mutations)
        self.gene_key = gene_key
        self.rng = rng
        self.population_size = population_size
        self.offspring_per_gen = offspring_per_gen
        self.max_generations = max_generations
        self.patience = patience
        self.batch_fitness = batch_fitness
        self.report = EvolutionReport()
        self._cache: MutableMapping = cache if cache is not None else {}
        self._cache_key = cache_key if cache_key is not None else gene_key

    def _evaluate(self, gene: Gene) -> float:
        key = self._cache_key(gene)
        if key in self._cache:
            self.report.cache_hits += 1
        else:
            self._cache[key] = self.fitness(gene)
            self.report.evaluations += 1
        return self._cache[key]

    def _evaluate_batch(self, genes: List[Gene]) -> List[float]:
        """Score ``genes`` through the memo, batching the misses.

        Cached genes are served from the memo (and counted as hits);
        only the distinct uncached genes reach ``batch_fitness``.
        In-batch duplicates are resolved after the fresh values land,
        so they probe the memo as hits — exactly the accounting the
        gene-at-a-time path produces for the same sequence.
        """
        if self.batch_fitness is None or len(genes) <= 1:
            return [self._evaluate(gene) for gene in genes]
        keys = [self._cache_key(gene) for gene in genes]
        values: List[Optional[float]] = [None] * len(genes)
        pending: Dict[Hashable, int] = {}
        miss_genes: List[Gene] = []
        duplicates: List[int] = []
        for position, (gene, key) in enumerate(zip(genes, keys)):
            if key in pending:
                duplicates.append(position)
            elif key in self._cache:
                self.report.cache_hits += 1
                values[position] = self._cache[key]
            else:
                pending[key] = position
                miss_genes.append(gene)
        if miss_genes:
            fresh = list(self.batch_fitness(miss_genes))
            if len(fresh) != len(miss_genes):
                raise ConfigurationError(
                    f"batch_fitness returned {len(fresh)} values for "
                    f"{len(miss_genes)} genes"
                )
            for (key, position), value in zip(pending.items(), fresh):
                self._cache[key] = value
                values[position] = self._cache[key]
                self.report.evaluations += 1
        for position in duplicates:
            # The first occurrence has been inserted by now, so this
            # membership probe registers as a cache hit — as it would
            # have in the sequential flow.
            key = keys[position]
            if key in self._cache:
                self.report.cache_hits += 1
                values[position] = self._cache[key]
            else:  # pragma: no cover - pending keys are always inserted
                values[position] = self._evaluate(genes[position])
        return values  # type: ignore[return-value]

    def _select_parent(self, population: List[Tuple[Gene, float]]) -> Gene:
        """Fitness-proportionate selection with a floor for non-positive
        fitness values (falls back to rank weighting)."""
        fitnesses = [f for _, f in population]
        low = min(fitnesses)
        if low <= 0:
            weights = [
                rank + 1
                for rank, _ in enumerate(
                    sorted(range(len(population)),
                           key=lambda i: fitnesses[i])
                )
            ]
            # weights indexed by sorted rank -> map back to positions
            order = sorted(range(len(population)), key=lambda i: fitnesses[i])
            position_weights = [0.0] * len(population)
            for rank, pos in enumerate(order):
                position_weights[pos] = rank + 1
            weights = position_weights
        else:
            weights = fitnesses
        total = sum(weights)
        pick = self.rng.random() * total
        acc = 0.0
        for (gene, _), weight in zip(population, weights):
            acc += weight
            if pick <= acc:
                return gene
        return population[-1][0]

    def run(self, initial_population: List[Gene]) -> Tuple[Gene, float]:
        """Alg. 2: evolve from ``initial_population``; return the best gene."""
        if not initial_population:
            raise ConfigurationError("initial population must be non-empty")
        population = list(zip(
            initial_population,
            self._evaluate_batch(list(initial_population)),
        ))
        population.sort(key=lambda pair: pair[1], reverse=True)
        population = population[: self.population_size]

        best_gene, best_fit = population[0]
        stale = 0
        for _generation in range(self.max_generations):
            # Generate the whole brood first: selection only reads the
            # parent population and evaluation consumes no randomness,
            # so deferring fitness to one batched call preserves the
            # exact RNG stream (and results) of child-at-a-time
            # evaluation.
            brood: List[Gene] = []
            seen = {self.gene_key(g) for g, _ in population}
            for _ in range(self.offspring_per_gen):
                parent = self._select_parent(population)
                operator = self.rng.choice(self.mutations)
                child = operator(parent, self.rng)
                key = self.gene_key(child)
                if key in seen:
                    continue
                seen.add(key)
                brood.append(child)
            children: List[Tuple[Gene, float]] = list(zip(
                brood, self._evaluate_batch(brood)
            ))

            population.extend(children)
            population.sort(key=lambda pair: pair[1], reverse=True)
            population = population[: self.population_size]
            self.report.generations += 1

            if population[0][1] > best_fit:
                best_gene, best_fit = population[0]
                stale = 0
            else:
                stale += 1
            self.report.best_fitness_history.append(best_fit)
            if self.patience is not None and stale >= self.patience:
                break
        return best_gene, best_fit
