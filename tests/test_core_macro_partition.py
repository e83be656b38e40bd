"""Unit tests for stage 3: EA-based macro partitioning (Alg. 2)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backend import numpy_available
from repro.core.config import SynthesisConfig
from repro.core.dataflow import make_spec
from repro.core.macro_partition import (
    MacroPartition,
    MacroPartitionExplorer,
    decode_gene,
    encode_gene,
)
from repro.errors import ConfigurationError, InfeasibleError, PimsynError
from repro.hardware.power import PowerBudget


@pytest.fixture()
def explorer(tiny_model, params):
    budget = PowerBudget.from_constraint(2.0, 0.3, 128, 2, params)
    spec = make_spec(tiny_model, [4, 2, 1], xb_size=128, res_rram=2,
                     res_dac=1, params=params)
    config = SynthesisConfig.fast(total_power=2.0, seed=11)
    return MacroPartitionExplorer(
        spec=spec, budget=budget, res_dac=1, config=config,
        rng=random.Random(11),
    )


class TestGeneEncoding:
    """The paper's i*1000+#macros packing must round-trip exactly."""

    def test_encode_own_groups(self):
        gene = encode_gene([0, 1, 2], [3, 1, 7])
        assert gene == (3, 1001, 2007)

    def test_encode_sharing(self):
        # layer 2 shares with layer 0 -> 0*1000 + m
        gene = encode_gene([0, 1, 0], [3, 1, 3])
        assert gene == (3, 1001, 3)

    def test_decode_roundtrip(self):
        owners, counts = [0, 1, 0, 3], [2, 5, 2, 9]
        assert decode_gene(encode_gene(owners, counts)) == (
            owners, counts
        )

    def test_owner_after_index_rejected(self):
        with pytest.raises(ConfigurationError):
            encode_gene([1, 1], [1, 1])

    def test_count_bounds_enforced(self):
        with pytest.raises(ConfigurationError):
            encode_gene([0], [0])
        with pytest.raises(ConfigurationError):
            encode_gene([0], [1000])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            encode_gene([0, 1], [1])


class TestMacroPartitionDecoding:
    def test_sequential_macro_ids(self):
        partition = MacroPartition.from_gene(encode_gene(
            [0, 1, 2], [2, 3, 1]
        ))
        assert partition.macro_groups == ((0, 1), (2, 3, 4), (5,))
        assert partition.num_macros == 6
        assert partition.sharing_pairs == ()

    def test_sharing_reuses_owner_group(self):
        partition = MacroPartition.from_gene(encode_gene(
            [0, 1, 0], [2, 1, 2]
        ))
        assert partition.macro_groups[2] == partition.macro_groups[0]
        assert partition.sharing_pairs == ((0, 2),)
        assert partition.num_macros == 3  # shared macros counted once

    def test_share_with_non_owner_rejected(self):
        # layer 1 shares with 0, layer 2 shares with 1 (a chain): invalid
        gene = (1, 1, 1001)
        with pytest.raises(ConfigurationError):
            MacroPartition.from_gene(gene)

    def test_owner_shared_twice_rejected(self):
        """Rule b allows pairs only: layers 1 and 2 both sharing layer
        0's macros is a group of three."""
        with pytest.raises(
            ConfigurationError,
            match=r"layers 1 and 2 both share layer 0's macros",
        ):
            MacroPartition.from_gene(encode_gene([0, 0, 0], [2, 2, 2]))

    def test_two_disjoint_pairs_accepted(self):
        partition = MacroPartition.from_gene(encode_gene(
            [0, 1, 0, 1], [2, 1, 2, 1]
        ))
        assert partition.sharing_pairs == ((0, 2), (1, 3))
        assert partition.num_macros == 3


class TestMutations:
    def test_mutate_num_respects_caps(self, explorer):
        gene = encode_gene([0, 1, 2], [1, 1, 1])
        rng = random.Random(0)
        for _ in range(100):
            gene = explorer.mutate_num(gene, rng)
            _owners, counts = decode_gene(gene)
            for index, count in enumerate(counts):
                assert 1 <= count <= explorer.caps[index]

    def test_mutate_share_creates_valid_pairs(self, explorer):
        gene = encode_gene([0, 1, 2], [1, 1, 1])
        rng = random.Random(1)
        seen_share = False
        for _ in range(100):
            gene = explorer.mutate_share(gene, rng)
            partition = MacroPartition.from_gene(gene)  # must not raise
            if partition.sharing_pairs:
                seen_share = True
                for j, i in partition.sharing_pairs:
                    assert j < i
        assert seen_share

    def test_mutate_share_toggles_off(self, explorer):
        gene = encode_gene([0, 1, 0], [1, 1, 1])
        rng = random.Random(3)
        for _ in range(50):
            gene = explorer.mutate_share(gene, rng)
        # After many toggles the gene is still structurally valid.
        MacroPartition.from_gene(gene)

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_mutation_walks_form_pairs_only(self, explorer, seed):
        """Alg. 2's operators never build a gene rule b rejects, so
        enforcing pairs only moves no design."""
        rng = random.Random(seed)
        genes = explorer.initial_population(4)
        for _ in range(300):
            parent = rng.choice(genes)
            op = rng.choice((explorer.mutate_num, explorer.mutate_share))
            child = op(parent, rng)
            partition = MacroPartition.from_gene(child)  # must not raise
            owners = [j for j, _i in partition.sharing_pairs]
            assert len(owners) == len(set(owners))
            genes.append(child)
        assert any(
            MacroPartition.from_gene(g).sharing_pairs for g in genes
        )

    def test_mutations_preserve_length(self, explorer):
        gene = encode_gene([0, 1, 2], [1, 2, 1])
        rng = random.Random(2)
        for op in (explorer.mutate_num, explorer.mutate_share):
            for _ in range(20):
                gene = op(gene, rng)
                assert len(gene) == 3


def _reference_mutate_num(explorer, gene, rng):
    """``mutate_num`` as a decode/encode round trip (the oracle the
    encoded edit is held to)."""
    owners, counts = decode_gene(gene)
    index = rng.randrange(len(gene))
    target = owners[index]
    cap = explorer.caps[target]
    if cap == 1:
        return gene
    delta = rng.choice((-2, -1, 1, 2))
    counts[target] = max(1, min(cap, counts[target] + delta))
    return encode_gene(owners, counts)


def _reference_mutate_share(explorer, gene, rng):
    """``mutate_share`` as a decode/encode round trip."""
    if not explorer.config.enable_macro_sharing:
        return gene
    owners, counts = decode_gene(gene)
    index = rng.randrange(len(owners))
    if owners[index] != index:
        owners[index] = index
        return encode_gene(owners, counts)
    shared_owners = {o for i, o in enumerate(owners) if o != i}
    if index in shared_owners:
        return gene
    candidates = [
        j for j in range(index)
        if owners[j] == j and j not in shared_owners
    ]
    if not candidates:
        return gene
    owners[index] = rng.choice(candidates)
    return encode_gene(owners, counts)


#: The walk explorers' models and WtDup vectors: lenet5 (5 layers)
#: with several row tiles per layer, so every cap is above 1, and vgg8,
#: vgg16 and resnet18_cifar (8, 16 and 21 layers: 8 and 16 are where
#: the layer draws' bit length steps) with WtDup 1 on their first conv,
#: whose 27 rows fit one 32-row crossbar, so its cap is 1.
WALK_MODELS = {
    "lenet5": [8, 4, 4, 2, 1],
    "vgg8": [1] + [2] * 7,
    "vgg16": [1] + [2] * 15,
    "resnet18_cifar": [1] + [2] * 20,
}


def _walk_explorer(name, sharing):
    """A 32-row-crossbar explorer of ``name`` under its
    :data:`WALK_MODELS` WtDup, so most layers' counts have room to
    move."""
    from repro.nn import zoo

    model = zoo.by_name(name)
    config = SynthesisConfig.fast(total_power=8.0, seed=3)
    config.enable_macro_sharing = sharing
    spec = make_spec(model, WALK_MODELS[name], xb_size=32, res_rram=2,
                     res_dac=1, params=config.params)
    budget = PowerBudget(total_power=8.0, ratio_rram=0.3, xb_size=32,
                         res_rram=2, num_crossbars=8192)
    return MacroPartitionExplorer(
        spec=spec, budget=budget, res_dac=1, config=config,
        rng=random.Random(3),
    )


WALK_EXPLORERS = {
    (name, sharing): _walk_explorer(name, sharing)
    for name in WALK_MODELS for sharing in (True, False)
}


class TestEncodedMutations:
    """The operators edit the encoded gene; on every valid gene they
    return the decode/encode reference's gene and leave the RNG in the
    reference's state, so no EA walk moves."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 80),
        sharing=st.booleans(),
        name=st.sampled_from(sorted(WALK_MODELS)),
    )
    @settings(max_examples=120, deadline=None)
    def test_walk_matches_the_reference(self, seed, steps, sharing, name):
        explorer = WALK_EXPLORERS[name, sharing]
        assert max(explorer.caps) > 1
        assert len(explorer.caps) == len(WALK_MODELS[name])
        assert (1 in explorer.caps) == (name != "lenet5")
        rng = random.Random(seed)
        genes = explorer.initial_population(4)
        operators = (
            (explorer.mutate_num, _reference_mutate_num),
            (explorer.mutate_share, _reference_mutate_share),
        )
        for _ in range(steps):
            parent = rng.choice(genes)
            operator, reference = rng.choice(operators)
            reference_rng = random.Random()
            reference_rng.setstate(rng.getstate())
            want = reference(explorer, parent, reference_rng)
            child = operator(parent, rng)
            assert child == want and type(child) is tuple
            assert rng.getstate() == reference_rng.getstate()
            MacroPartition.from_gene(child)  # still a valid gene
            genes.append(child)

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 40),
        name=st.sampled_from(sorted(WALK_MODELS)),
    )
    @settings(max_examples=80, deadline=None)
    def test_initial_population_matches_the_randint_reference(
        self, seed, size, name
    ):
        explorer = _walk_explorer(name, True)
        explorer.rng = random.Random(seed)
        reference_rng = random.Random(seed)
        n_layers = len(explorer.caps)
        want = [
            encode_gene(range(n_layers), [1] * n_layers),
            encode_gene(range(n_layers), explorer.caps),
        ]
        while len(want) < size:
            want.append(encode_gene(range(n_layers), [
                reference_rng.randint(1, cap) for cap in explorer.caps
            ]))
        assert explorer.initial_population(size) == want
        assert explorer.rng.getstate() == reference_rng.getstate()


class TestScoring:
    def test_feasible_gene_scores_positive(self, explorer):
        gene = encode_gene([0, 1, 2], [1, 1, 1])
        fitness, allocation, result = explorer.score(gene)
        assert fitness > 0
        assert allocation is not None
        assert result is not None
        assert result.throughput == fitness

    def test_caps_follow_rule_c(self, explorer):
        # cap_i = min(WtDup_i * row_tiles_i, crossbars_i)
        for geo, cap in zip(explorer.spec.geometries, explorer.caps):
            assert cap <= geo.crossbars
            assert cap <= geo.wt_dup * geo.row_tiles


class TestExplore:
    def test_explore_returns_feasible_best(self, explorer):
        partition, allocation, result = explorer.explore()
        assert result.throughput > 0
        assert partition.num_macros >= 1
        assert len(allocation.layers) == 3

    def test_explore_deterministic(self, tiny_model, params):
        def run(seed):
            budget = PowerBudget.from_constraint(2.0, 0.3, 128, 2,
                                                 params)
            spec = make_spec(tiny_model, [4, 2, 1], xb_size=128,
                             res_rram=2, res_dac=1, params=params)
            config = SynthesisConfig.fast(total_power=2.0, seed=seed)
            explorer = MacroPartitionExplorer(
                spec=spec, budget=budget, res_dac=1, config=config,
                rng=random.Random(seed),
            )
            return explorer.explore()[0].gene

        assert run(5) == run(5)

    def test_explore_beats_naive_gene(self, explorer):
        _partition, _allocation, result = explorer.explore()
        naive = encode_gene([0, 1, 2], [1, 1, 1])
        naive_fitness, _a, _r = explorer.score(naive)
        assert result.throughput >= naive_fitness

    def test_score_fields_of_a_feasible_gene(self, explorer):
        gene = encode_gene([0, 1, 0], [1, 1, 1])
        fitness, _allocation, result = explorer.score(gene)
        fields = explorer.score_fields(gene)
        assert fields["feasible"] is True
        assert fields["fitness"] == fitness == result.throughput
        assert fields["num_macros"] == 2
        assert fields["bottleneck_layer"] == result.bottleneck_layer
        for name in ("period", "latency", "power", "edp"):
            assert fields[name] == getattr(result, name)

    def test_score_fields_of_an_infeasible_gene(self, tiny_model, params):
        """Infeasible genes take the batched kernel's masked values."""
        budget = PowerBudget.from_constraint(0.01, 0.3, 128, 2, params)
        spec = make_spec(tiny_model, [4, 2, 1], xb_size=128, res_rram=2,
                         res_dac=1, params=params)
        starved = MacroPartitionExplorer(
            spec=spec, budget=budget, res_dac=1,
            config=SynthesisConfig.fast(total_power=0.01, seed=11),
            rng=random.Random(11),
        )
        fields = starved.score_fields(encode_gene([0, 1, 2], [1, 1, 1]))
        assert fields.pop("feasible") is False
        assert fields.pop("bottleneck_layer") == -1
        assert fields.pop("num_macros") == 0
        assert set(fields.values()) == {0.0}

    def test_scalar_divergence_on_the_winner_raises(
        self, explorer, monkeypatch
    ):
        """The batched EA finds a feasible winner; a scalar re-score
        calling it infeasible is an engine divergence, reported as a
        PimsynError (never the skipped-task InfeasibleError) even under
        ``python -O``."""
        assert numpy_available()  # the search scores batched
        monkeypatch.setattr(
            explorer, "score", lambda gene: (0.0, None, None)
        )
        with pytest.raises(PimsynError, match="scalar oracle") as info:
            explorer.explore()
        assert not isinstance(info.value, InfeasibleError)
        message = str(info.value)
        assert "gene (" in message
        assert "backend 'numpy'" in message
