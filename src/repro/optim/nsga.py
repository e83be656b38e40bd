"""NSGA-II: multi-objective evolutionary search over the Gene protocol.

Where :class:`repro.optim.evolution.EvolutionEngine` climbs a scalar
fitness, this engine evolves toward a whole Pareto front of vector
objectives (all maximized). Both run the one (mu + lambda) loop of
:class:`repro.optim.evolution.MuPlusLambda`: caller-supplied mutation
operators, ``gene_key`` identity, one population scorer consulted
through the memo helper (:func:`repro.optim.memo.score_through_memo`),
and an ask/tell stepper (``steps()``) that ``run()`` steps through
:func:`repro.optim.evolution.evolve_together`, which also runs the DSE
executor's lock-stepped EA launches.

The NSGA-II specifics (Deb et al. 2002) live in
:mod:`repro.optim.dominance`: fast non-dominated sort, crowding
distance with infinite boundary points, and binary tournament on
(rank, crowding). Scoring consumes no randomness, so a run's RNG
stream and front do not depend on how many genes the memo served —
the same determinism contract the scalar EA ships.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, TypeVar

from repro.optim.dominance import (
    crowding_distances,
    fast_non_dominated_sort,
)
from repro.optim.evolution import MuPlusLambda
from repro.utils.rng import randbelow

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


class NSGA2Engine(MuPlusLambda[Gene, Vector]):
    """Evolve a population toward the Pareto front of vector objectives.

    ``score`` maps a gene sequence to one objective vector (a tuple,
    every component maximized; callers negate minimized metrics) per
    gene. It must be deterministic: vectors are memoized by
    ``cache_key`` and only memo misses reach it. The other parameters
    are :class:`~repro.optim.evolution.MuPlusLambda`'s. A cache shared
    with the scalar EA must use a ``cache_key`` that also encodes the
    objective set, so scalar fitness floats and vector tuples never
    collide under one key.
    """

    report_type = NSGAReport

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

    def _survivors(
        self, population: List[Tuple[Gene, Vector]]
    ) -> List[Tuple[Gene, Vector]]:
        """Environmental selection: best ``population_size`` by
        (rank asc, crowding desc, index asc) — the NSGA-II elitist
        truncation with a deterministic index tie-break.

        Also records how many survivors have rank 0, which is the size
        of the survivors' own first front: every survivor of rank >= 1
        is dominated by a rank-0 member, and the rank-0 members all
        survive unless they alone fill the population."""
        vectors = [vector for _, vector in population]
        ranks, crowding = self._rank_and_crowd(vectors)
        kept = sorted(
            range(len(population)),
            key=lambda i: (ranks[i], -crowding[i], i),
        )[: self.population_size]
        self._front_size = sum(ranks[i] == 0 for i in kept)
        return [population[i] for i in kept]

    def _tournament(
        self,
        population: List[Tuple[Gene, Vector]],
        ranks: List[int],
        crowding: List[float],
    ) -> Gene:
        """Binary tournament on (rank, crowding); index breaks ties."""
        a = randbelow(self.rng, len(population))
        b = randbelow(self.rng, len(population))
        if (ranks[a], -crowding[a], a) <= (ranks[b], -crowding[b], b):
            return population[a][0]
        return population[b][0]

    def _selector(self, population):
        ranks, crowding = self._rank_and_crowd(
            [vector for _, vector in population]
        )
        return lambda: self._tournament(population, ranks, crowding)

    def _advance(self, parents, population):
        self.report.front_size_history.append(self._front_size)
        return False

    def _result(
        self, population: List[Tuple[Gene, Vector]]
    ) -> List[Tuple[Gene, Vector]]:
        """The rank-0 (non-dominated) subset of the last population as
        ``(gene, objective_vector)`` pairs, sorted by the first
        objective descending (ties: remaining objectives descending,
        then gene) — a deterministic order callers can merge and
        diff."""
        vectors = [vector for _, vector in population]
        front = [population[i] for i in fast_non_dominated_sort(vectors)[0]]
        front.sort(key=lambda pair: (
            tuple(-value for value in pair[1]), pair[0],
        ))
        return front
