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

Gene = TypeVar("Gene")


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


class EvolutionEngine(Generic[Gene]):
    """Maximize fitness over genes under mutation operators.

    Parameters
    ----------
    score:
        Population scorer: maps a gene sequence to one fitness per gene,
        larger is better (accelerator performance in §IV-C2). Whole
        generations (the initial population and each generation's
        brood) are scored through :func:`repro.optim.memo.
        score_through_memo`, so only genes missing from the memo reach
        it; the DSE passes :meth:`repro.core.macro_partition.
        MacroPartitionExplorer.score_population`.
    mutations:
        Operators ``(gene, rng) -> gene``; must return valid genes
        ("the generated children always obey the defined rules").
    population_size / offspring_per_gen / max_generations:
        Standard (mu + lambda) knobs; Alg. 2's ``MaxEAIterations``.
    cache:
        Optional externally owned mapping used as the fitness memo. By
        default each engine keeps a private dict; the DSE executor
        passes its task runner's dict, which a resumed synthesis
        pre-fills from the interrupted run's memo.
    cache_key:
        Key function for ``cache`` entries. Defaults to ``gene_key``;
        a shared cache must use a content key that also identifies the
        evaluation context (model, hardware params, design point).

    Scoring consumes no randomness, so a run's RNG stream and result
    do not depend on how many genes the memo served.
    """

    def __init__(
        self,
        score: Callable[[Sequence[Gene]], Sequence[float]],
        mutations: List[Callable[[Gene, random.Random], Gene]],
        gene_key: Callable[[Gene], Hashable],
        rng: random.Random,
        population_size: int = 16,
        offspring_per_gen: int = 16,
        max_generations: int = 20,
        patience: Optional[int] = None,
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
        self.patience = patience
        self.report = EvolutionReport()
        self._cache: MutableMapping = cache if cache is not None else {}
        self._cache_key = cache_key if cache_key is not None else gene_key

    def _scored(self, genes: List[Gene]) -> List[Tuple[Gene, float]]:
        """``(gene, fitness)`` pairs, scored through the memo."""
        return list(zip(genes, score_through_memo(
            genes, self.score, self._cache, self._cache_key, self.report
        )))

    def _select_parent(self, population: List[Tuple[Gene, float]]) -> Gene:
        """Fitness-proportionate selection with a floor for non-positive
        fitness values (falls back to rank weighting)."""
        fitnesses = [f for _, f in population]
        low = min(fitnesses)
        if low <= 0:
            # Rank weights, mapped back to population positions.
            order = sorted(range(len(population)), key=lambda i: fitnesses[i])
            weights = [0.0] * len(population)
            for rank, pos in enumerate(order):
                weights[pos] = rank + 1
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
        population = self._scored(list(initial_population))
        population.sort(key=lambda pair: pair[1], reverse=True)
        population = population[: self.population_size]

        best_gene, best_fit = population[0]
        stale = 0
        for _generation in range(self.max_generations):
            # Generate the whole brood first: selection only reads the
            # parent population and scoring consumes no randomness, so
            # one scoring call per generation preserves the exact RNG
            # stream (and results) of child-at-a-time scoring.
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
            population.extend(self._scored(brood))
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
