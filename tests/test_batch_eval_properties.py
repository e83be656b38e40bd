"""Hypothesis invariants of the batched population evaluator.

Algebraic properties the batched engines must satisfy for *any*
rule-valid gene population (not just the ones the differential suite
samples):

- permuting a population permutes the scores and nothing else;
- a batch of one equals the scalar ``score()``;
- duplicated genes receive identical fitness;
- genes already in the evaluation memo are never re-evaluated by the
  EA's population scorer.

The numpy-kernel class holds :func:`repro.core.backend.
score_population` to the same properties on every field: permutation
invariance, batch-of-one ``==`` the scalar oracle, any read order of
the fields (the deferred metrics pass runs once, and only when one of
its fields is read), and memo hit/miss identity — the EA's memo
interaction is byte-for-byte the same whether the kernel or the scalar
oracle scores the misses. Both paths accept
exactly the same genes, and an EA run walks identically with numpy and
without it. The memo accounting itself is tested on its own, over float
and tuple values (``test_memo_properties.py``).
"""

from __future__ import annotations

import contextlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SynthesisConfig
from repro.core.backend import numpy_available
from repro.core.batch_eval import BATCH_FIELDS, DEFERRED_FIELDS
from repro.core.dataflow import make_spec
from repro.core.macro_partition import (
    MacroPartition,
    MacroPartitionExplorer,
    PopulationScorer,
    encode_gene,
)
from repro.errors import ConfigurationError
from repro.hardware.power import PowerBudget
from repro.nn import lenet5
from repro.optim.evolution import EvolutionEngine
from repro.optim.memo import score_through_memo


def _make_explorer(sharing=True, specialized=True):
    model = lenet5()
    config = SynthesisConfig.fast(total_power=2.0)
    config.enable_macro_sharing = sharing
    config.specialized_macros = specialized
    n = model.num_weighted_layers
    spec = make_spec(
        model, [1] * n, xb_size=128, res_rram=2, res_dac=1,
        params=config.params,
        max_blocks_per_layer=config.max_blocks_per_layer,
    )
    budget = PowerBudget(
        total_power=2.0, ratio_rram=0.3, xb_size=128, res_rram=2,
        num_crossbars=2048,
    )
    return MacroPartitionExplorer(
        spec=spec, budget=budget, res_dac=1, config=config,
        rng=random.Random(0),
    )


EXPLORER = _make_explorer()
CAPS = list(EXPLORER.caps)
KNOB_EXPLORERS = {
    "no-sharing": _make_explorer(sharing=False),
    "identical-macros": _make_explorer(specialized=False),
}


def _fitness(genes):
    """``EXPLORER``'s fitness of ``genes`` through the DSE's population
    scorer (the numpy kernel when numpy imports)."""
    return PopulationScorer([EXPLORER]).fitness(genes, [0] * len(genes))


@contextlib.contextmanager
def _counted_metrics_pass():
    """The arguments of each run of the kernel's deferred metrics pass
    while the block runs."""
    from repro.core import backend

    runs = []
    real = backend._metrics_pass

    def counted(*args):
        runs.append(args)
        return real(*args)

    backend._metrics_pass = counted
    try:
        yield runs
    finally:
        backend._metrics_pass = real


def _memo_engine(score, cache):
    """An EA over ``EXPLORER``'s genes scoring through ``cache``."""
    return EvolutionEngine(
        score=score,
        mutations=[EXPLORER.mutate_num],
        gene_key=lambda gene: gene,
        rng=random.Random(0),
        cache=cache,
    )


@st.composite
def valid_genes(draw):
    """Rule-valid genes: capped counts, pairs-only sharing (rule b)."""
    owners = []
    counts = []
    paired = set()
    for index, cap in enumerate(CAPS):
        counts.append(draw(st.integers(min_value=1, max_value=cap)))
        candidates = [
            j for j in range(index)
            if owners[j] == j and j not in paired
        ]
        if candidates and draw(st.booleans()):
            partner = draw(st.sampled_from(candidates))
            owners.append(partner)
            paired.add(partner)
        else:
            owners.append(index)
    return encode_gene(owners, counts)


@st.composite
def any_genes(draw):
    """Genes valid or not: any owner up to the layer itself (the layer
    half the time), counts up to the cap and, one gene in ten, a zero
    count (rejected on decode)."""
    owners = [
        draw(st.one_of(st.just(index), st.integers(0, index)))
        for index in range(len(CAPS))
    ]
    counts = [draw(st.integers(1, cap)) for cap in CAPS]
    if draw(st.integers(0, 9)) == 0:
        counts[draw(st.integers(0, len(CAPS) - 1))] = 0
    return tuple(
        owner * 1000 + count for owner, count in zip(owners, counts)
    )


@st.composite
def populations(draw):
    return draw(
        st.lists(valid_genes(), min_size=1, max_size=12)
    )


class TestBatchInvariants:
    @given(genes=populations(), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_permutation_permutes_scores(self, genes, seed):
        scores = _fitness(genes)
        order = list(range(len(genes)))
        random.Random(seed).shuffle(order)
        permuted = _fitness([genes[i] for i in order])
        assert permuted == [scores[i] for i in order]

    @given(gene=valid_genes())
    @settings(max_examples=25, deadline=None)
    def test_batch_of_one_equals_scalar_score(self, gene):
        assert _fitness([gene]) == [
            EXPLORER.score(gene)[0]
        ]
        batch = EXPLORER.batch_evaluator.evaluate_population([gene])
        fitness, allocation, result = EXPLORER.score(gene)
        assert bool(batch.feasible[0]) == (allocation is not None)
        if result is not None:
            assert float(batch.period[0]) == result.period
            assert float(batch.latency[0]) == result.latency
            assert float(batch.power[0]) == result.power

    @given(gene=valid_genes(), copies=st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_duplicated_genes_get_identical_fitness(self, gene, copies):
        scores = _fitness([gene] * copies)
        assert len(set(scores)) == 1

    @given(genes=populations())
    @settings(max_examples=25, deadline=None)
    def test_memo_hits_are_never_reevaluated(self, genes):
        """Cached genes must not reach the EA's scorer; fresh genes must
        reach it exactly once each, duplicates collapsed."""
        cached = genes[: len(genes) // 2]
        cache = {}
        sentinels = {}
        for i, gene in enumerate(cached):
            cache.setdefault(gene, float(i))
            sentinels.setdefault(gene, float(i))
        evaluated = []

        def score(batch):
            evaluated.extend(batch)
            return _fitness(list(batch))

        engine = _memo_engine(score, cache)
        values = score_through_memo(
            list(genes), engine.score, engine._cache, engine._cache_key,
            engine.report,
        )
        assert len(values) == len(genes)
        cached_set = set(cached)
        # Memo hits never reach the scorer, and no gene is evaluated
        # twice (in-batch duplicates collapse to one call).
        assert not (set(evaluated) & cached_set)
        assert len(evaluated) == len(set(evaluated))
        assert set(evaluated) == {
            g for g in genes if g not in cached_set
        }
        assert engine.report.evaluations == len(evaluated)
        assert engine.report.cache_hits == len(genes) - len(evaluated)
        for gene, value in zip(genes, values):
            assert value == cache[gene]
        # Cached entries kept their sentinel values: no re-evaluation.
        for gene, sentinel in sentinels.items():
            assert cache[gene] == sentinel


@pytest.mark.skipif(
    not numpy_available(), reason="the batched path needs numpy"
)
class TestNumpyKernelProperties:
    """Population scoring through the numpy kernel, on every field."""

    @given(genes=populations(), seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_score_population_permutation_invariance(self, genes, seed):
        import numpy as np

        evaluator = EXPLORER.batch_evaluator
        order = list(range(len(genes)))
        random.Random(seed).shuffle(order)
        base = evaluator.evaluate_population(genes)
        permuted = evaluator.evaluate_population(
            [genes[i] for i in order]
        )
        for field in BATCH_FIELDS:
            assert np.array_equal(
                np.asarray(getattr(base, field))[order],
                np.asarray(getattr(permuted, field)),
            ), field

    @pytest.mark.parametrize("knobs", ["default"] + sorted(KNOB_EXPLORERS))
    @given(
        genes=populations(),
        order=st.permutations(BATCH_FIELDS),
        stop=st.integers(0, len(BATCH_FIELDS)),
    )
    @settings(max_examples=15, deadline=None)
    def test_any_read_order_reads_the_oracle(
        self, knobs, genes, order, stop
    ):
        """Reading the first ``stop`` fields of any order runs the
        deferred metrics pass once when they hold one of its fields and
        never otherwise, and every field read is the oracle's."""
        explorer = KNOB_EXPLORERS.get(knobs, EXPLORER)
        read = order[:stop]
        with _counted_metrics_pass() as runs:
            batch = explorer.batch_evaluator.evaluate_population(genes)
            columns = {name: getattr(batch, name).tolist() for name in read}
            for name in read:  # a second read runs nothing
                getattr(batch, name)
        assert len(runs) == int(any(name in DEFERRED_FIELDS for name in read))
        for k, gene in enumerate(genes):
            want = explorer.score_fields(gene)
            for name in read:
                assert columns[name][k] == want[name], (k, name)

    @given(gene=valid_genes())
    @settings(max_examples=10, deadline=None)
    def test_batch_of_one_equals_scalar_oracle(self, gene):
        """Single-gene batches reproduce the scalar ``score()``, bit
        for bit, on every field."""
        batch = EXPLORER.batch_evaluator.evaluate_population([gene])
        for name, want in EXPLORER.score_fields(gene).items():
            assert getattr(batch, name)[0] == want, name

    @pytest.mark.parametrize("knobs", sorted(KNOB_EXPLORERS))
    @given(genes=populations())
    @settings(max_examples=10, deadline=None)
    def test_kernel_matches_oracle_under_knobs(self, knobs, genes):
        """The no-sharing and identical-macro allocations, which the EA
        tier never runs, match the oracle on every field too."""
        explorer = KNOB_EXPLORERS[knobs]
        batch = explorer.batch_evaluator.evaluate_population(genes)
        for k, gene in enumerate(genes):
            for name, want in explorer.score_fields(gene).items():
                assert getattr(batch, name)[k] == want, (k, name)

    @given(genes=populations())
    @settings(max_examples=10, deadline=None)
    def test_memo_interaction_identical_with_and_without_numpy(
        self, genes
    ):
        """The EA's memo sees the same hits, misses and stored values
        whether the numpy kernel or the scalar oracle scores the
        misses."""
        scorers = {
            "numpy": EXPLORER.batch_evaluator.fitness_of,
            "scalar": lambda batch: [EXPLORER.score(g)[0] for g in batch],
        }
        results = {}
        for name, fitness_of in scorers.items():
            cached = genes[: len(genes) // 2]
            cache = {}
            for i, g in enumerate(cached):
                cache.setdefault(g, float(i))
            evaluated = []

            def score(batch, _score=fitness_of, _log=evaluated):
                _log.extend(batch)
                return _score(list(batch))

            engine = _memo_engine(score, cache)
            values = score_through_memo(
                list(genes), engine.score, engine._cache,
                engine._cache_key, engine.report,
            )
            results[name] = (
                tuple(evaluated), dict(cache), values,
                engine.report.evaluations, engine.report.cache_hits,
            )
        assert results["numpy"] == results["scalar"]

    @given(gene=any_genes())
    @settings(max_examples=60, deadline=None)
    def test_both_paths_accept_the_same_genes(self, gene):
        """The batched validator rejects exactly the genes
        ``MacroPartition.from_gene`` rejects (a zero count, sharing
        with a sharer, an owner shared by two layers), and the kernel
        matches the oracle on the ones both accept."""
        try:
            MacroPartition.from_gene(gene)
        except ConfigurationError:
            with pytest.raises(ConfigurationError):
                EXPLORER.batch_evaluator.evaluate_population([gene])
            return
        batch = EXPLORER.batch_evaluator.evaluate_population([gene])
        for name, want in EXPLORER.score_fields(gene).items():
            assert getattr(batch, name)[0] == want, name


class TestDecodeProperties:
    @pytest.mark.skipif(
        not numpy_available(), reason="the gene decode is numpy's kernel"
    )
    @given(genes=populations(), seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_decode_permutation_invariance(self, genes, seed):
        """Decoding a permuted population permutes every per-gene row
        of the decode: lanes are independent."""
        import numpy as np

        from repro.core.backend import _decode

        genes_arr = np.asarray(genes, dtype=np.int64)
        order = list(range(len(genes)))
        random.Random(seed).shuffle(order)
        base = _decode(genes_arr)
        permuted = _decode(genes_arr[order])
        for b, p in zip(base, permuted):
            assert np.array_equal(np.asarray(b)[order], np.asarray(p))


class TestEngineEquivalence:
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_batched_and_scalar_ea_runs_are_identical(
        self, seed, without_numpy
    ):
        """Same seed, same initial population -> same EA outcome and
        telemetry with the batched engine and, numpy blocked, without
        it."""

        def outcome(explorer):
            explorer.rng = random.Random(seed)
            partition, _allocation, result = explorer.explore()
            return (
                partition.gene,
                result.throughput,
                explorer.last_report.evaluations,
                explorer.last_report.cache_hits,
                explorer.last_report.generations,
            )

        batched = outcome(_make_explorer())
        scalar_explorer = _make_explorer()
        with without_numpy():
            assert outcome(scalar_explorer) == batched
