"""Unit tests for the stage-1 SA weight-duplication filter."""

import contextlib
import hashlib
import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.backend import numpy_available
from repro.core.config import SynthesisConfig
from repro.core.design_space import DesignSpace
from repro.core.weight_duplication import (
    WeightDuplicationFilter,
    apply_move,
    lockstep_candidates,
)
from repro.errors import ConfigurationError, InfeasibleError
from repro.nn import lenet5, zoo
from repro.optim.annealing import SimulatedAnnealer
from repro.utils.mathutils import stdev
from repro.utils.rng import SeedSequence


def _filter(model, num_crossbars=2000, **overrides):
    config = SynthesisConfig.fast(total_power=5.0, **overrides)
    return WeightDuplicationFilter(
        model=model, xb_size=128, res_rram=2,
        num_crossbars=num_crossbars, config=config,
    )


_LENET = lenet5()


def _lenet_filter(headroom, **overrides):
    """A lenet5 filter with ``headroom`` crossbars above WtDup=1."""
    sizes = _filter(_LENET, num_crossbars=10 ** 6).set_sizes
    return _filter(
        _LENET, num_crossbars=sum(sizes) + headroom, **overrides
    )


def _full_check_neighbor(filt, state, rng):
    """``neighbor`` with the full O(n) ``is_feasible`` on every try:
    the reference the delta check must reproduce draw for draw."""
    n_layers = len(state)
    for _ in range(16):
        move = rng.randrange(3)
        candidate = list(state)
        if move == 0:  # grow one layer
            index = rng.randrange(n_layers)
            candidate[index] += 1
        elif move == 1:  # shrink one layer
            index = rng.randrange(n_layers)
            candidate[index] -= 1
        else:  # shift: shrink one, grow another
            src = rng.randrange(n_layers)
            dst = rng.randrange(n_layers)
            if src == dst:
                continue
            candidate[src] -= 1
            candidate[dst] += 1
        if filt.is_feasible(candidate):
            return tuple(candidate)
    return state


class TestFeasibility:
    def test_infeasible_budget_raises(self, tiny_model):
        with pytest.raises(InfeasibleError):
            _filter(tiny_model, num_crossbars=3)

    def test_crossbars_used_formula(self, tiny_model):
        filt = _filter(tiny_model)
        dup = (2, 3, 1)
        expected = sum(
            d * s for d, s in zip(dup, filt.set_sizes)
        )
        assert filt.crossbars_used(dup) == expected

    def test_is_feasible_checks_budget(self, tiny_model):
        filt = _filter(tiny_model, num_crossbars=50)
        assert filt.is_feasible((1, 1, 1))
        assert not filt.is_feasible((10000, 1, 1))

    def test_is_feasible_rejects_nonpositive(self, tiny_model):
        filt = _filter(tiny_model)
        assert not filt.is_feasible((0, 1, 1))

    def test_is_feasible_caps_at_output_positions(self, tiny_model):
        filt = _filter(tiny_model, num_crossbars=10 ** 9)
        # fc1 has 1 output position: duplication beyond 1 is useless.
        assert not filt.is_feasible((1, 1, 2))


class TestEnergyFunction:
    def test_eq4_value(self, tiny_model):
        filt = _filter(tiny_model)
        dup = (1, 1, 1)
        steps = [p / d for p, d in zip(filt.out_positions, dup)]
        volumes = [
            d * u for d, u in zip(dup, filt.volume_units)
        ]
        expected = stdev(steps) + filt.config.sa_alpha * stdev(volumes)
        assert filt.energy(dup) == pytest.approx(expected)

    def test_balanced_beats_skewed(self, tiny_model):
        filt = _filter(tiny_model)
        # c1: 256 positions, c2: 64, fc: 1. Balancing steps lowers E.
        skewed = filt.energy((1, 1, 1))
        balanced = filt.energy((4, 1, 1))
        assert balanced < skewed


def _left_to_right(values):
    total = 0.0
    for value in values:
        total = total + value
    return total


def _written_out_energy(filt, dup):
    """Eq. 4 with both population stdevs' sums added left to right."""
    def spread(values):
        mu = _left_to_right(values) / len(values)
        return math.sqrt(
            _left_to_right([(x - mu) ** 2 for x in values]) / len(values)
        )

    steps = [p / d for p, d in zip(filt.out_positions, dup)]
    volumes = [d * u for d, u in zip(dup, filt.volume_units)]
    return spread(steps) + filt.config.sa_alpha * spread(volumes)


#: sha256 (first 16 hex digits) of the ``float.hex()`` of the 200
#: energies in ``TestEnergySumOrder``. Every sum in Eq. 4 adds left to
#: right, so the digest is the same on every Python version, including
#: 3.12+, where builtin ``sum()`` of floats is compensated.
VGG16_ENERGY_DIGEST = "2353726fda7cff24"


class TestEnergySumOrder:
    """The scalar energy is the left-to-right reference, bit for bit,
    whatever the interpreter's builtin ``sum()`` does."""

    @pytest.fixture(scope="class")
    def vgg16_states(self):
        filt = _filter(zoo.vgg16_cifar(), num_crossbars=10 ** 6)
        rng = random.Random(0)
        states = [
            tuple(rng.randint(1, min(cap, 64)) for cap in filt.dup_caps)
            for _ in range(200)
        ]
        return filt, states

    def test_energy_matches_written_out_sums(self, vgg16_states):
        filt, states = vgg16_states
        for state in states:
            assert filt.energy(state) == _written_out_energy(filt, state)

    def test_energy_digest_is_pinned(self, vgg16_states):
        filt, states = vgg16_states
        text = " ".join(filt.energy(state).hex() for state in states)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert digest == VGG16_ENERGY_DIGEST

    @pytest.mark.skipif(
        not numpy_available(), reason="the batched path needs numpy"
    )
    def test_batch_energy_matches_scalar_energy(self, vgg16_states):
        """A whole proposal round through the numpy row sums is the
        scalar energy of each state, bit for bit."""
        filt, states = vgg16_states
        assert filt.batch_energy(states) == [
            filt.energy(state) for state in states
        ]

    def test_batch_energy_without_numpy(self, vgg16_states, without_numpy):
        filt, states = vgg16_states
        with without_numpy():
            assert filt.batch_energy(states[:20]) == [
                filt.energy(state) for state in states[:20]
            ]


def _scan_initial_state(filt):
    """``initial_state`` as a sorted scan per step: the reference the
    heap is held to."""
    dup = [1] * len(filt.set_sizes)
    remaining = filt.num_crossbars - filt.crossbars_used(dup)
    improved = True
    while improved:
        improved = False
        order = sorted(
            range(len(dup)),
            key=lambda i: filt.out_positions[i] / dup[i],
            reverse=True,
        )
        for index in order:
            cost = filt.set_sizes[index]
            if cost <= remaining and dup[index] < filt.dup_caps[index]:
                dup[index] += 1
                remaining -= cost
                improved = True
                break
    return tuple(dup)


class TestInitialState:
    @pytest.mark.parametrize("name", zoo.available_models())
    def test_heap_matches_the_sorted_scan(self, name):
        """The heap picks what the scan picks: the scan takes the most
        steps first and breaks ties to the lower index, and a layer
        that cannot grow now never can, since the budget only shrinks.
        Three budgets per point: the WtDup=1 floor, the point's own
        budget and the midpoint."""
        model = zoo.by_name(name)
        config = SynthesisConfig(total_power=60.0, seed=1)
        space = DesignSpace(model, config)
        checked = 0
        for point in space.outer_points():
            floor = space.min_crossbars(point.xb_size, point.res_rram)
            for budget in (
                floor, (floor + point.num_crossbars) // 2,
                point.num_crossbars,
            ):
                filt = WeightDuplicationFilter(
                    model=model, xb_size=point.xb_size,
                    res_rram=point.res_rram, num_crossbars=budget,
                    config=config,
                )
                assert filt.initial_state() == _scan_initial_state(filt)
                checked += 1
        assert checked >= 3

    def test_feasible(self, tiny_model):
        filt = _filter(tiny_model)
        assert filt.is_feasible(filt.initial_state())

    def test_fills_budget_greedily(self, tiny_model):
        filt = _filter(tiny_model, num_crossbars=500)
        state = filt.initial_state()
        # the remaining budget cannot fit another copy of any
        # still-improvable layer
        remaining = filt.num_crossbars - filt.crossbars_used(state)
        for index, size in enumerate(filt.set_sizes):
            if state[index] < filt.dup_caps[index]:
                assert size > remaining

    def test_tight_budget_gives_all_ones(self, tiny_model):
        filt = _filter(tiny_model, num_crossbars=sum(
            _filter(tiny_model).set_sizes
        ))
        assert filt.initial_state() == (1, 1, 1)


class TestNeighbor:
    def test_neighbors_stay_feasible(self, tiny_model):
        filt = _filter(tiny_model)
        rng = random.Random(0)
        state = filt.initial_state()
        for _ in range(200):
            state = filt.neighbor(state, rng)
            assert filt.is_feasible(state)

    def test_frozen_when_no_move_possible(self, lenet):
        config = SynthesisConfig.fast(total_power=5.0)
        filt = WeightDuplicationFilter(
            model=lenet, xb_size=128, res_rram=2,
            num_crossbars=sum(
                WeightDuplicationFilter(
                    model=lenet, xb_size=128, res_rram=2,
                    num_crossbars=10 ** 6, config=config,
                ).set_sizes
            ),
            config=config,
        )
        state = (1,) * lenet.num_weighted_layers
        rng = random.Random(0)
        # With zero headroom the only feasible moves keep the state.
        assert filt.neighbor(state, rng) == state

    @given(
        headroom=st.integers(0, 200),
        entries=st.lists(st.integers(1, 5), min_size=5, max_size=5),
        broken=st.sampled_from((None, None, 0, 6)),
        layer=st.integers(0, 4),
        seed=st.integers(0, 2 ** 32 - 1),
        count=st.integers(1, 8),
    )
    @example(headroom=0, entries=[1, 1, 1, 1, 1], broken=None, layer=0,
             seed=0, count=3)
    @example(headroom=8, entries=[1, 1, 1, 1, 1], broken=None, layer=0,
             seed=0, count=1)  # the one feasible move fills the budget
    @example(headroom=10, entries=[5, 5, 1, 1, 1], broken=None, layer=0,
             seed=1, count=2)  # over budget
    @example(headroom=200, entries=[1, 1, 1, 1, 1], broken=0, layer=3,
             seed=2, count=4)  # an entry below 1
    @example(headroom=200, entries=[1, 1, 1, 1, 1], broken=6, layer=4,
             seed=3, count=4)  # an entry over its cap
    @settings(max_examples=300, deadline=None)
    def test_matches_full_check_walk(
        self, headroom, entries, broken, layer, seed, count
    ):
        """The delta feasibility check takes exactly the full-check
        walk's moves and random draws, from feasible and infeasible
        states alike: ``neighbor``'s move, then each of a round of
        ``count`` moves that ``draw_moves`` draws off the same state,
        as the lock-stepped chains draw them. Both leave the RNG where
        the randrange-based walk leaves it."""
        filt = _lenet_filter(headroom)
        # Entries within the caps, so the budget decides feasibility,
        # unless one is pushed below 1 or over the cap of 1 that
        # lenet5's three FC layers have.
        state = [min(d, cap) for d, cap in zip(entries, filt.dup_caps)]
        if broken is not None:
            state[layer] = broken
        state = tuple(state)
        rng = random.Random(seed)
        reference_rng = random.Random(seed)
        assert filt.neighbor(state, rng) == _full_check_neighbor(
            filt, state, reference_rng
        )
        assert rng.getstate() == reference_rng.getstate()
        grown, shrunk = [], []
        filt.draw_moves(
            state, filt.slack_of(state), rng, count, grown, shrunk
        )
        assert [
            apply_move(state, up, down) for up, down in zip(grown, shrunk)
        ] == [
            _full_check_neighbor(filt, state, reference_rng)
            for _ in range(count)
        ]
        assert rng.getstate() == reference_rng.getstate()


class TestTopCandidates:
    def test_returns_requested_count(self, tiny_model):
        filt = _filter(tiny_model, num_wtdup_candidates=5)
        candidates = filt.top_candidates(random.Random(1))
        assert 1 <= len(candidates) <= 5

    def test_candidates_distinct_and_feasible(self, tiny_model):
        filt = _filter(tiny_model, num_wtdup_candidates=8)
        candidates = filt.top_candidates(random.Random(1))
        assert len(set(candidates)) == len(candidates)
        for c in candidates:
            assert filt.is_feasible(c)

    def test_sorted_by_energy(self, tiny_model):
        filt = _filter(tiny_model, num_wtdup_candidates=8)
        candidates = filt.top_candidates(random.Random(1))
        energies = [filt.energy(c) for c in candidates]
        assert energies == sorted(energies)

    def test_deterministic_under_seed(self, tiny_model):
        filt = _filter(tiny_model)
        a = filt.top_candidates(random.Random(9))
        b = _filter(tiny_model).top_candidates(random.Random(9))
        assert a == b

    def test_sa_beats_all_ones_energy(self, vgg13_model):
        filt = _filter(vgg13_model, num_crossbars=100000)
        best = filt.top_candidates(random.Random(2))[0]
        assert filt.energy(best) < filt.energy(
            tuple([1] * vgg13_model.num_weighted_layers)
        )


def _stage_one_chains(name, power, proposal_batch):
    """A fresh ``(filter, rng)`` chain for every outer point of ``name``
    at ``power`` on the default grid, seed 1, each under its
    ``sa:{point}`` RNG, as the executor builds them."""
    model = zoo.by_name(name)
    config = SynthesisConfig(
        total_power=power, seed=1, sa_proposal_batch=proposal_batch
    )
    seeds = SeedSequence(config.seed)
    return [
        (
            WeightDuplicationFilter(
                model=model, xb_size=point.xb_size,
                res_rram=point.res_rram,
                num_crossbars=point.num_crossbars, config=config,
            ),
            seeds.spawn(f"sa:{point.describe()}"),
        )
        for point in DesignSpace(model, config).outer_points()
    ]


#: (model, power, sa_proposal_batch) -> (outer points, sha256 prefix of
#: the JSON of every point's candidate list), as one chain per point
#: produced them before the chains were lock-stepped.
STAGE_ONE_DIGESTS = {
    ("lenet5", 2.0, 1): (35, "78168b441f1bf766"),
    ("lenet5", 2.0, 8): (35, "6268ea34d6498388"),
    ("alexnet_cifar", 20.0, 1): (33, "e9edc64db0f902f9"),
    ("alexnet_cifar", 20.0, 8): (33, "c788692ab79a074f"),
    ("vgg16_cifar", 40.0, 1): (33, "66e03653ebfbb253"),
    ("vgg16_cifar", 40.0, 8): (33, "5b10ac536df6e150"),
}


def _annealer_candidates(filt, rng):
    """The reference walk: :class:`SimulatedAnnealer` over the filter's
    scalar ``energy`` and ``neighbor`` from its initial state, one
    state at a time, without ``batch_energy``."""
    config = filt.config
    annealer = SimulatedAnnealer(
        energy=filt.energy,
        neighbor=filt.neighbor,
        state_key=lambda state: state,
        rng=rng,
        schedule=config.sa_schedule,
        proposal_batch=config.sa_proposal_batch,
    )
    ranked = annealer.run(
        filt.initial_state(), top_k=config.num_wtdup_candidates
    )
    return [state for state, _energy in ranked]


def _round_sizes(config):
    """Proposals per chain in each SA round, in order."""
    sizes = []
    for _temperature in config.sa_schedule.temperatures():
        remaining = config.sa_steps_per_temp
        while remaining > 0:
            sizes.append(min(config.sa_proposal_batch, remaining))
            remaining -= sizes[-1]
    return sizes


class TestLockstep:
    """Stepping the stage-1 chains together never changes a chain's
    walk: each list is the chain's own ``SimulatedAnnealer`` walk."""

    @pytest.fixture(scope="class")
    def solo_walks(self):
        """Each point's reference walk, per case, computed once."""
        walks = {}

        def solo(case):
            if case not in walks:
                walks[case] = [
                    _annealer_candidates(filt, rng)
                    for filt, rng in _stage_one_chains(*case)
                ]
            return walks[case]

        return solo

    @pytest.mark.parametrize("gate", ["numpy", "without_numpy"])
    @pytest.mark.parametrize(
        "case", sorted(STAGE_ONE_DIGESTS),
        ids=lambda case: f"{case[0]}-batch{case[2]}",
    )
    def test_lockstep_equals_each_solo_walk(
        self, case, gate, solo_walks, without_numpy
    ):
        if gate == "numpy" and not numpy_available():
            pytest.skip("numpy is not installed")
        blocked = without_numpy() if gate == "without_numpy" else (
            contextlib.nullcontext()
        )
        with blocked:
            together = lockstep_candidates(_stage_one_chains(*case))
        solo = solo_walks(case)
        assert together == solo
        points, digest = STAGE_ONE_DIGESTS[case]
        text = json.dumps([[list(c) for c in found] for found in solo])
        assert len(solo) == points
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    @given(
        headrooms=st.lists(st.integers(0, 1000), min_size=1, max_size=4),
        batch=st.integers(1, 8),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @example(headrooms=[0, 8, 60], batch=3, seed=0)
    @example(headrooms=[100, 200, 1000], batch=1, seed=0)
    @settings(max_examples=40, deadline=None)
    def test_carried_slack_walks_like_the_annealer(
        self, headrooms, batch, seed
    ):
        """The loop carries each accepted move's slack where the
        reference recomputes it, so a slack carried wrong would accept
        or refuse another move. Each chain, under its own headroom
        above WtDup=1 (none: every move is refused; more: grows and
        shifts fit until the walk has spent it), returns the reference
        walk's list."""
        filters = [
            _lenet_filter(headroom, sa_proposal_batch=batch)
            for headroom in headrooms
        ]
        together = lockstep_candidates([
            (filt, random.Random(seed + index))
            for index, filt in enumerate(filters)
        ])
        assert together == [
            _annealer_candidates(filt, random.Random(seed + index))
            for index, filt in enumerate(filters)
        ]

    @pytest.mark.parametrize("gate", ["numpy", "without_numpy"])
    @pytest.mark.parametrize("batch", [1, 7, 8])
    def test_one_feasibility_check_per_chain_one_call_per_round(
        self, batch, gate, without_numpy, monkeypatch
    ):
        """``is_feasible`` runs once per chain, on its initial state,
        and ``batch_energy`` once per round, on every chain's proposals
        of that round. A batch of 7 leaves a short last round at each
        temperature."""
        if gate == "numpy" and not numpy_available():
            pytest.skip("numpy is not installed")
        checked, scored = [], []
        is_feasible = WeightDuplicationFilter.is_feasible
        batch_energy = WeightDuplicationFilter.batch_energy

        def counting_feasible(filt, state):
            checked.append(filt)
            return is_feasible(filt, state)

        def counting_energy(filt, states):
            scored.append(len(states))
            return batch_energy(filt, states)

        monkeypatch.setattr(
            WeightDuplicationFilter, "is_feasible", counting_feasible
        )
        monkeypatch.setattr(
            WeightDuplicationFilter, "batch_energy", counting_energy
        )
        chains = _stage_one_chains("lenet5", 2.0, batch)
        blocked = without_numpy() if gate == "without_numpy" else (
            contextlib.nullcontext()
        )
        with blocked:
            lockstep_candidates(chains)
        assert checked == [filt for filt, _rng in chains]
        assert scored == [
            len(chains) * size for size in _round_sizes(chains[0][0].config)
        ]

    def test_no_chains(self):
        assert lockstep_candidates([]) == []

    @pytest.mark.parametrize(
        "name", ("lenet5", "alexnet_cifar", "vgg16_cifar")
    )
    def test_chains_must_share_sa_alpha(self, name):
        """Every chain is scored with the first filter's Eq. 4, so a
        chain under another ``sa_alpha`` would walk another energy: its
        list differs from its solo walk. That is refused by name."""
        model = zoo.by_name(name)
        floor = sum(_filter(model, num_crossbars=10 ** 9).set_sizes)
        filters = [
            _filter(model, num_crossbars=3 * floor, sa_alpha=alpha)
            for alpha in (0.0, 50.0)
        ]
        solo = filters[1].top_candidates(random.Random(4))
        assert solo != _filter(
            model, num_crossbars=3 * floor, sa_alpha=0.0
        ).top_candidates(random.Random(4))
        with pytest.raises(ConfigurationError, match="'sa_alpha'"):
            lockstep_candidates(
                [(filt, random.Random(4)) for filt in filters]
            )

    @pytest.mark.parametrize("field,values,name", [
        ("sa_cooling_rate", (0.8, 0.9), "sa_schedule"),
        ("sa_steps_per_temp", (15, 16), "sa_schedule"),
        ("sa_initial_temperature", (1.0, 2.0), "sa_schedule"),
        ("sa_proposal_batch", (8, 4), "sa_proposal_batch"),
        ("num_wtdup_candidates", (6, 7), "num_wtdup_candidates"),
    ])
    def test_chains_must_share_the_walk_shape(self, field, values, name):
        """One loop steps every chain through the first filter's
        cooling ladder, round size and archive size, so a chain that
        differs in one of them is refused by name."""
        filters = [
            _lenet_filter(40, **{field: value}) for value in values
        ]
        with pytest.raises(ConfigurationError, match=f"'{name}'"):
            lockstep_candidates(
                [(filt, random.Random(4)) for filt in filters]
            )

    def test_chains_must_share_one_model(self):
        filters = [
            _filter(zoo.by_name(name), num_crossbars=10 ** 6)
            for name in ("lenet5", "alexnet_cifar")
        ]
        with pytest.raises(ConfigurationError, match="'out_positions'"):
            lockstep_candidates(
                [(filt, random.Random(4)) for filt in filters]
            )
