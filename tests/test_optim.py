"""Unit tests for the SA and EA engines."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.optim.annealing import AnnealingSchedule, SimulatedAnnealer
from repro.optim.evolution import EvolutionEngine


class TestAnnealingSchedule:
    def test_ladder_descends(self):
        temps = AnnealingSchedule(
            initial_temperature=1.0, min_temperature=0.1,
            cooling_rate=0.5, steps_per_temp=1,
        ).temperatures()
        assert temps == pytest.approx([1.0, 0.5, 0.25, 0.125])

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ConfigurationError):
            AnnealingSchedule(initial_temperature=0)
        with pytest.raises(ConfigurationError):
            AnnealingSchedule(cooling_rate=1.0)
        with pytest.raises(ConfigurationError):
            AnnealingSchedule(min_temperature=2.0,
                              initial_temperature=1.0)
        with pytest.raises(ConfigurationError):
            AnnealingSchedule(steps_per_temp=0)


class TestSimulatedAnnealer:
    def _quadratic_annealer(self, seed=1):
        return SimulatedAnnealer(
            energy=lambda x: (x - 17) ** 2,
            neighbor=lambda x, rng: x + rng.choice((-1, 1)),
            state_key=lambda x: x,
            rng=random.Random(seed),
            schedule=AnnealingSchedule(
                initial_temperature=10.0, min_temperature=0.01,
                cooling_rate=0.9, steps_per_temp=30,
            ),
        )

    def test_finds_minimum_of_quadratic(self):
        best = self._quadratic_annealer().run(0, top_k=1)
        state, energy = best[0]
        assert abs(state - 17) <= 1
        assert energy <= 1

    def test_top_k_distinct_and_sorted(self):
        results = self._quadratic_annealer().run(0, top_k=5)
        states = [s for s, _ in results]
        energies = [e for _, e in results]
        assert len(set(states)) == len(states)
        assert energies == sorted(energies)

    def test_deterministic_under_seed(self):
        a = self._quadratic_annealer(seed=3).run(0, top_k=3)
        b = self._quadratic_annealer(seed=3).run(0, top_k=3)
        assert a == b

    def test_counts_evaluations(self):
        annealer = self._quadratic_annealer()
        annealer.run(0, top_k=1)
        assert annealer.evaluations > 100

    def test_top_k_validation(self):
        with pytest.raises(ConfigurationError):
            self._quadratic_annealer().run(0, top_k=0)

    def test_proposal_batch_counts_evaluations(self):
        annealer = SimulatedAnnealer(
            energy=lambda x: float(x * x),
            neighbor=lambda x, rng: x + rng.choice((-1, 1)),
            state_key=lambda x: x,
            rng=random.Random(1),
            schedule=AnnealingSchedule(
                initial_temperature=1.0, min_temperature=0.5,
                cooling_rate=0.5, steps_per_temp=7,
            ),
            proposal_batch=3,  # 7 steps/temp -> rounds of 3, 3, 1
        )
        annealer.run(5, top_k=1)
        # Initial + one per step over the 2-rung ladder (1.0, 0.5).
        assert annealer.evaluations == 1 + 2 * 7

    def test_proposal_batch_validation(self):
        with pytest.raises(ConfigurationError):
            SimulatedAnnealer(
                energy=lambda x: 0.0,
                neighbor=lambda x, rng: x,
                state_key=lambda x: x,
                rng=random.Random(0),
                proposal_batch=0,
            )

    def test_always_returns_at_least_initial(self):
        annealer = SimulatedAnnealer(
            energy=lambda x: 0.0,
            neighbor=lambda x, rng: x,  # frozen walk
            state_key=lambda x: x,
            rng=random.Random(0),
            schedule=AnnealingSchedule(
                initial_temperature=1.0, min_temperature=0.5,
                cooling_rate=0.5, steps_per_temp=1,
            ),
        )
        results = annealer.run(42, top_k=3)
        assert results[0][0] == 42


class TestEvolutionEngine:
    def _onemax_engine(self, seed=1, **kwargs):
        def flip(gene, rng):
            index = rng.randrange(len(gene))
            out = list(gene)
            out[index] ^= 1
            return tuple(out)

        defaults = dict(
            population_size=10, offspring_per_gen=10,
            max_generations=40,
        )
        defaults.update(kwargs)
        return EvolutionEngine(
            score=lambda genes: [float(sum(g)) for g in genes],
            mutations=[flip],
            gene_key=lambda g: g,
            rng=random.Random(seed),
            **defaults,
        )

    def test_solves_onemax(self):
        engine = self._onemax_engine()
        best, fitness = engine.run([tuple([0] * 12)])
        assert fitness == 12.0
        assert best == tuple([1] * 12)

    def test_deterministic_under_seed(self):
        a = self._onemax_engine(seed=5).run([tuple([0] * 8)])
        b = self._onemax_engine(seed=5).run([tuple([0] * 8)])
        assert a == b

    def test_fitness_memoized(self):
        calls = []

        def score(genes):
            calls.extend(genes)
            return [float(sum(gene)) for gene in genes]

        def flip(gene, rng):
            return gene  # constant: same gene re-proposed forever

        engine = EvolutionEngine(
            score=score, mutations=[flip], gene_key=lambda g: g,
            rng=random.Random(0), population_size=4,
            offspring_per_gen=4, max_generations=5,
        )
        engine.run([(1, 0)])
        assert len(calls) == 1  # evaluated once despite many proposals

    def test_patience_stops_early(self):
        engine = self._onemax_engine(patience=2, max_generations=100)
        engine.run([tuple([1] * 4)])  # already optimal
        assert engine.report.generations <= 3

    def test_report_history_monotone(self):
        engine = self._onemax_engine()
        engine.run([tuple([0] * 10)])
        history = engine.report.best_fitness_history
        assert history == sorted(history)

    def test_handles_nonpositive_fitness(self):
        def score(genes):
            # always negative
            return [float(sum(gene)) - 100.0 for gene in genes]

        def flip(gene, rng):
            index = rng.randrange(len(gene))
            out = list(gene)
            out[index] ^= 1
            return tuple(out)

        engine = EvolutionEngine(
            score=score, mutations=[flip], gene_key=lambda g: g,
            rng=random.Random(2), population_size=6,
            offspring_per_gen=6, max_generations=30,
        )
        best, fit = engine.run([tuple([0] * 6)])
        assert fit > -100.0  # still improves despite negative scores

    def test_select_parent_rank_floor_sequence_pinned(self):
        """Determinism regression for the non-positive-fitness path.

        When any fitness is <= 0 the selector falls back to rank
        weighting; the exact parent sequence under a fixed seed is
        pinned here so evaluator refactors (e.g. the batched engine)
        cannot silently drift the EA's walk. The weights are rank-based
        (ties broken by position), so 'b' (rank 5) is the likeliest and
        'a' (rank 1) the rarest pick.
        """
        engine = self._onemax_engine()
        engine.rng = random.Random(2024)
        population = [
            ("a", -5.0), ("b", 0.0), ("c", -1.0), ("d", -3.0),
            ("e", -1.0),
        ]
        select = engine._selector(population)
        picks = [select() for _ in range(20)]
        assert picks == [
            "c", "d", "b", "e", "c", "d", "b", "b", "e", "c",
            "c", "d", "e", "b", "d", "c", "d", "e", "b", "e",
        ]

    def test_select_parent_rank_floor_seed_reproducible(self):
        """Two engines with the same seed select identical parents."""
        population = [("a", -2.0), ("b", -4.0), ("c", 0.0), ("d", -1.0)]
        sequences = []
        for _ in range(2):
            engine = self._onemax_engine()
            engine.rng = random.Random(99)
            select = engine._selector(population)
            sequences.append([select() for _ in range(50)])
        assert sequences[0] == sequences[1]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self._onemax_engine(population_size=0)
        with pytest.raises(ConfigurationError):
            EvolutionEngine(
                score=lambda genes: [0.0] * len(genes), mutations=[],
                gene_key=lambda g: g, rng=random.Random(0),
            )
        engine = self._onemax_engine()
        with pytest.raises(ConfigurationError):
            engine.run([])
