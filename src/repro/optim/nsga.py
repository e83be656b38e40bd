"""NSGA-II: multi-objective evolutionary search over the Gene protocol.

Where :class:`repro.optim.evolution.EvolutionEngine` climbs a scalar
fitness, this engine evolves toward a whole Pareto front of vector
objectives (all maximized). It deliberately mirrors the EA's plumbing:
caller-supplied mutation operators, ``gene_key`` identity, and one
population scorer consulted through the same memo helper
(:func:`repro.optim.memo.score_through_memo`), so the DSE executor
drives both engines the same way.

The NSGA-II specifics (Deb et al. 2002) live in
:mod:`repro.optim.dominance`: fast non-dominated sort, crowding
distance with infinite boundary points, and binary tournament on
(rank, crowding). Scoring consumes no randomness, so a run's RNG
stream and front do not depend on how many genes the memo served —
the same determinism contract the scalar EA ships.
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
from repro.optim.dominance import (
    crowding_distances,
    fast_non_dominated_sort,
)
from repro.optim.memo import score_through_memo

Gene = TypeVar("Gene")
Vector = Tuple[float, ...]


@dataclass
class NSGAReport:
    """Search telemetry, mirroring :class:`~repro.optim.evolution.
    EvolutionReport`'s accounting contract: ``evaluations`` counts memo
    misses (actual objective computations), ``cache_hits`` counts
    lookups served from the memo."""

    generations: int = 0
    evaluations: int = 0
    cache_hits: int = 0
    front_size_history: List[int] = field(default_factory=list)


class NSGA2Engine(Generic[Gene]):
    """Evolve a population toward the Pareto front of vector objectives.

    Parameters
    ----------
    score:
        Population scorer: maps a gene sequence to one objective vector
        (a tuple, every component maximized; callers negate minimized
        metrics) per gene. Must be deterministic: vectors are memoized
        by ``cache_key`` and only memo misses reach it.
    mutations / gene_key / rng / population_size / offspring_per_gen /
    max_generations / cache / cache_key:
        Exactly as in :class:`repro.optim.evolution.EvolutionEngine`.
        A cache shared with the scalar EA must use a ``cache_key`` that
        also encodes the objective set, so scalar fitness floats and
        vector tuples never collide under one key.
    """

    def __init__(
        self,
        score: Callable[[Sequence[Gene]], Sequence[Vector]],
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
        self.report = NSGAReport()
        self._cache: MutableMapping = cache if cache is not None else {}
        self._cache_key = cache_key if cache_key is not None else gene_key

    def _scored(self, genes: List[Gene]) -> List[Tuple[Gene, Vector]]:
        """``(gene, objective vector)`` pairs, scored through the memo."""
        return list(zip(genes, score_through_memo(
            genes, self.score, self._cache, self._cache_key, self.report
        )))

    # ------------------------------------------------------------------
    # NSGA-II machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _rank_and_crowd(
        vectors: Sequence[Vector],
    ) -> Tuple[List[int], List[float]]:
        """Per-index (rank, crowding distance) over one population."""
        ranks = [0] * len(vectors)
        crowding = [0.0] * len(vectors)
        for rank, front in enumerate(fast_non_dominated_sort(vectors)):
            distances = crowding_distances(vectors, front)
            for index in front:
                ranks[index] = rank
                crowding[index] = distances[index]
        return ranks, crowding

    def _truncate(
        self, population: List[Tuple[Gene, Vector]]
    ) -> List[Tuple[Gene, Vector]]:
        """Environmental selection: best ``population_size`` by
        (rank asc, crowding desc, index asc) — the NSGA-II elitist
        truncation with a deterministic index tie-break."""
        vectors = [vector for _, vector in population]
        ranks, crowding = self._rank_and_crowd(vectors)
        order = sorted(
            range(len(population)),
            key=lambda i: (ranks[i], -crowding[i], i),
        )
        return [population[i] for i in order[: self.population_size]]

    def _tournament(
        self,
        population: List[Tuple[Gene, Vector]],
        ranks: List[int],
        crowding: List[float],
    ) -> Gene:
        """Binary tournament on (rank, crowding); index breaks ties."""
        a = self.rng.randrange(len(population))
        b = self.rng.randrange(len(population))
        if (ranks[a], -crowding[a], a) <= (ranks[b], -crowding[b], b):
            return population[a][0]
        return population[b][0]

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(
        self, initial_population: List[Gene]
    ) -> List[Tuple[Gene, Vector]]:
        """Evolve from ``initial_population``; return the final front.

        The result is the rank-0 (non-dominated) subset of the last
        population as ``(gene, objective_vector)`` pairs, sorted by the
        first objective descending (ties: remaining objectives
        descending, then gene) — a deterministic order callers can
        merge and diff.
        """
        if not initial_population:
            raise ConfigurationError("initial population must be non-empty")
        population = self._truncate(
            self._scored(list(initial_population))
        )

        for _generation in range(self.max_generations):
            vectors = [vector for _, vector in population]
            ranks, crowding = self._rank_and_crowd(vectors)
            # Generate the whole brood before scoring: selection only
            # reads the parent population and scoring consumes no
            # randomness, so one scoring call preserves the exact RNG
            # stream of child-at-a-time scoring.
            brood: List[Gene] = []
            seen = {self.gene_key(g) for g, _ in population}
            for _ in range(self.offspring_per_gen):
                parent = self._tournament(population, ranks, crowding)
                operator = self.rng.choice(self.mutations)
                child = operator(parent, self.rng)
                key = self.gene_key(child)
                if key in seen:
                    continue
                seen.add(key)
                brood.append(child)
            population = self._truncate(population + self._scored(brood))
            self.report.generations += 1
            front_size = len(
                fast_non_dominated_sort(
                    [vector for _, vector in population]
                )[0]
            )
            self.report.front_size_history.append(front_size)

        vectors = [vector for _, vector in population]
        front_indices = fast_non_dominated_sort(vectors)[0]
        front = [population[i] for i in front_indices]
        front.sort(key=lambda pair: (
            tuple(-value for value in pair[1]), pair[0],
        ))
        return front
