"""Hypothesis invariants of the multi-objective layer.

Pins the algebra the NSGA-II engine and the shared dominance helpers
must satisfy for *any* input, plus the degenerate-case contract that
ties the new engine back to the scalar EA:

- the fast non-dominated sort partitions the population into disjoint
  fronts with no intra-front dominance, each front dominated only from
  earlier fronts;
- crowding distance marks boundary points infinite;
- ``pareto_front`` is permutation-invariant and idempotent
  (``pareto_front(pareto_front(x)) == pareto_front(x)``);
- strict dominance: a vector never dominates itself (the archive's
  equal-vector regression);
- a single-objective NSGA-II run recovers the same best fitness as
  ``EvolutionEngine`` under the same seed;
- the front size NSGA-II records per generation is the survivors'
  first front, without sorting the survivors again.

The memo both engines score through is tested on its own
(``test_memo_properties.py``).
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings, strategies as st

from repro.core.archive import ArchiveEntry, dominates, pareto_front
from repro.optim.dominance import (
    crowding_distances,
    fast_non_dominated_sort,
    hypervolume,
    non_dominated_indices,
)
from repro.optim.evolution import EvolutionEngine
from repro.optim.nsga import NSGA2Engine

# Small integer coordinates on purpose: ties and duplicate vectors are
# the interesting corner cases of dominance, and floats drawn from a
# continuous range would almost never produce them.
vectors_st = st.lists(
    st.tuples(
        st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)
    ).map(lambda t: tuple(float(v) for v in t)),
    min_size=1, max_size=16,
)


class TestDominanceHelpers:
    @given(vectors=vectors_st)
    @settings(max_examples=60, deadline=None)
    def test_sort_partitions_into_disjoint_fronts(self, vectors):
        fronts = fast_non_dominated_sort(vectors)
        flat = [i for front in fronts for i in front]
        assert sorted(flat) == list(range(len(vectors)))
        assert len(flat) == len(set(flat))

    @given(vectors=vectors_st)
    @settings(max_examples=60, deadline=None)
    def test_no_intra_front_dominance(self, vectors):
        for front in fast_non_dominated_sort(vectors):
            for a in front:
                for b in front:
                    assert not dominates(vectors[a], vectors[b])

    @given(vectors=vectors_st)
    @settings(max_examples=60, deadline=None)
    def test_later_fronts_dominated_from_the_previous_one(self, vectors):
        fronts = fast_non_dominated_sort(vectors)
        assert fronts[0] == non_dominated_indices(vectors)
        for earlier, later in zip(fronts, fronts[1:]):
            for b in later:
                assert any(
                    dominates(vectors[a], vectors[b]) for a in earlier
                )

    @given(vectors=vectors_st)
    @settings(max_examples=60, deadline=None)
    def test_crowding_boundary_points_are_infinite(self, vectors):
        for front in fast_non_dominated_sort(vectors):
            distances = crowding_distances(vectors, front)
            assert set(distances) == set(front)
            for axis in range(len(vectors[0])):
                ordered = sorted(front, key=lambda i: vectors[i][axis])
                assert distances[ordered[0]] == math.inf
                assert distances[ordered[-1]] == math.inf
            for value in distances.values():
                assert value >= 0.0
                assert not math.isnan(value)

    @given(
        vector=st.tuples(
            st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_a_vector_never_dominates_itself(self, vector):
        # The archive regression: equal objective vectors tie — they
        # coexist on a front instead of evicting one another.
        assert dominates(vector, vector) is False

    @given(vectors=vectors_st)
    @settings(max_examples=30, deadline=None)
    def test_hypervolume_monotone_under_point_removal(self, vectors):
        reference = (-1.0, -1.0, -1.0)
        full = hypervolume(vectors, reference)
        assert full >= 0.0
        for index in range(len(vectors)):
            remaining = vectors[:index] + vectors[index + 1:]
            assert hypervolume(remaining, reference) <= full + 1e-12


def _entry(throughput, power):
    return ArchiveEntry(
        ratio_rram=0.3, res_rram=2, xb_size=128, res_dac=1,
        wt_dup=(1,), throughput=float(throughput), power=float(power),
        tops_per_watt=0.0, latency=0.0, num_macros=1,
    )


entries_st = st.lists(
    st.tuples(st.integers(1, 8), st.integers(1, 8)).map(
        lambda t: _entry(*t)
    ),
    min_size=1, max_size=14,
)


class TestParetoFrontAlgebra:
    @given(entries=entries_st, seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant(self, entries, seed):
        front = pareto_front(entries)
        shuffled = list(entries)
        random.Random(seed).shuffle(shuffled)
        permuted = pareto_front(shuffled)
        key = lambda e: (e.throughput, e.power)  # noqa: E731
        assert sorted(map(key, front)) == sorted(map(key, permuted))

    @given(entries=entries_st)
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, entries):
        front = pareto_front(entries)
        assert pareto_front(front) == front

    @given(entries=entries_st)
    @settings(max_examples=60, deadline=None)
    def test_front_members_are_non_dominated_and_deduplicated(
        self, entries
    ):
        front = pareto_front(entries)
        vectors = [(e.throughput, -e.power) for e in front]
        assert len(set(vectors)) == len(vectors)
        all_vectors = [(e.throughput, -e.power) for e in entries]
        for vector in vectors:
            assert not any(
                dominates(other, vector) for other in all_vectors
            )


# ----------------------------------------------------------------------
# Engine-level invariants (a deterministic toy landscape keeps these
# fast; the DSE-scale behavior is pinned by test_pareto_differential)
# ----------------------------------------------------------------------
_SPAN = 64


def _toy_mutations():
    def nudge(gene, rng):
        return (max(0, min(_SPAN, gene[0] + rng.choice((-1, 1)))),)

    def jump(gene, rng):
        return (max(0, min(_SPAN, gene[0] + rng.choice((-8, 8)))),)

    return [nudge, jump]


def _toy_fitness(gene):
    # Unimodal with a plateau-free optimum at 37: both engines must
    # walk to the same peak given enough generations.
    return -float((gene[0] - 37) ** 2)


class TestEngineContracts:
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_single_objective_nsga_matches_scalar_ea(self, seed):
        initial = [(0,), (_SPAN,), (13,)]
        ea = EvolutionEngine(
            score=lambda genes: [_toy_fitness(gene) for gene in genes],
            mutations=_toy_mutations(),
            gene_key=lambda gene: gene,
            rng=random.Random(seed),
            population_size=10, offspring_per_gen=10,
            max_generations=40,
        )
        _gene, best = ea.run(list(initial))

        nsga = NSGA2Engine(
            score=lambda genes: [(_toy_fitness(gene),) for gene in genes],
            mutations=_toy_mutations(),
            gene_key=lambda gene: gene,
            rng=random.Random(seed),
            population_size=10, offspring_per_gen=10,
            max_generations=40,
        )
        front = nsga.run(list(initial))
        assert max(vector[0] for _gene, vector in front) == best == 0.0


class TestSurvivorFrontSize:
    """``_survivors`` records the size of its survivors' first front,
    and ``_advance`` reports that count instead of sorting the
    survivors a third time per generation."""

    @given(
        vectors=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
                lambda t: tuple(float(v) for v in t)
            ),
            min_size=2, max_size=24,
        ),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_recorded_count_is_the_survivors_first_front(
        self, vectors, data
    ):
        size = data.draw(st.integers(1, len(vectors) - 1))
        engine = NSGA2Engine(
            score=None,
            mutations=_toy_mutations(),
            gene_key=lambda gene: gene,
            rng=random.Random(0),
            population_size=size,
        )
        survivors = engine._survivors(
            [((index,), vector) for index, vector in enumerate(vectors)]
        )
        assert len(survivors) == size
        assert engine._front_size == len(
            fast_non_dominated_sort([vector for _, vector in survivors])[0]
        )

    def test_a_run_sorts_twice_per_generation(self, monkeypatch):
        sorts = []

        def counting_sort(vectors):
            sorts.append(len(vectors))
            return fast_non_dominated_sort(vectors)

        monkeypatch.setattr(
            "repro.optim.nsga.fast_non_dominated_sort", counting_sort
        )
        generations = 6
        engine = NSGA2Engine(
            score=lambda genes: [
                (-float((g[0] - 20) ** 2), -float((g[0] - 40) ** 2))
                for g in genes
            ],
            mutations=_toy_mutations(),
            gene_key=lambda gene: gene,
            rng=random.Random(5),
            population_size=8, offspring_per_gen=8,
            max_generations=generations,
        )
        front = engine.run([(0,), (_SPAN,), (13,)])
        # One sort for the initial survivors, one each for a
        # generation's tournament and its survivors, one for the front.
        assert engine.report.generations == generations
        assert len(sorts) == 2 * generations + 2
        assert len(engine.report.front_size_history) == generations
        assert engine.report.front_size_history[-1] == len(front)
