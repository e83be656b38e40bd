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
    lockstep_candidates,
)
from repro.errors import ConfigurationError, InfeasibleError
from repro.nn import lenet5, zoo
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
    )
    @example(headroom=0, entries=[1, 1, 1, 1, 1], broken=None, layer=0,
             seed=0)
    @example(headroom=8, entries=[1, 1, 1, 1, 1], broken=None, layer=0,
             seed=0)  # the one feasible move fills the budget exactly
    @example(headroom=10, entries=[5, 5, 1, 1, 1], broken=None, layer=0,
             seed=1)  # over budget
    @example(headroom=200, entries=[1, 1, 1, 1, 1], broken=0, layer=3,
             seed=2)  # an entry below 1
    @example(headroom=200, entries=[1, 1, 1, 1, 1], broken=6, layer=4,
             seed=3)  # an entry over its cap
    @settings(max_examples=300, deadline=None)
    def test_matches_full_check_walk(
        self, headroom, entries, broken, layer, seed
    ):
        """The delta feasibility check takes exactly the full-check
        walk's moves and random draws, from feasible and infeasible
        states alike."""
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

    @given(
        headroom=st.integers(0, 60),
        seed=st.integers(0, 2 ** 32 - 1),
        steps=st.lists(
            st.tuples(
                st.sampled_from(("proposal", "same", "seen", "infeasible")),
                st.integers(0, 2 ** 16),
            ),
            min_size=1, max_size=60,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_carried_slack_matches_full_check_over_a_walk(
        self, headroom, seed, steps
    ):
        """One filter serves a whole walk, so its carried entry-state
        slack must never go stale. Each next entry state is the last
        proposal, the same entry, an earlier state (the same object or
        an equal copy) or an injected infeasible state; every call
        must take the full-check walk's move and leave the RNG where
        the full check leaves it."""
        filt = _lenet_filter(headroom)
        rng = random.Random(seed)
        reference_rng = random.Random(seed)
        entry = filt.initial_state()
        seen = [entry]
        for kind, pick in steps:
            proposal = filt.neighbor(entry, rng)
            assert proposal == _full_check_neighbor(
                filt, entry, reference_rng
            )
            assert rng.getstate() == reference_rng.getstate()
            seen.append(proposal)
            if kind == "proposal":
                entry = proposal
            elif kind == "seen":
                entry = seen[pick % len(seen)]
                if pick % 2:
                    entry = tuple(list(entry))  # equal, not identical
            elif kind == "infeasible":
                broken = list(entry)
                layer = pick % len(broken)
                if pick % 3 == 0:
                    broken[layer] = 0  # below 1
                elif pick % 3 == 1:
                    broken[layer] = filt.dup_caps[layer] + 1  # over cap
                else:
                    broken[0] = filt.dup_caps[0]  # over budget
                entry = tuple(broken)
                assert not filt.is_feasible(entry)

    @given(
        headroom=st.integers(0, 80),
        batch=st.integers(1, 8),
        seed=st.integers(0, 2 ** 32 - 1),
        picks=st.lists(st.integers(0, 8), min_size=1, max_size=40),
    )
    @example(headroom=0, batch=3, seed=0, picks=[1, 2, 0])
    @settings(max_examples=150, deadline=None)
    def test_rounds_carry_each_proposals_slack(
        self, headroom, batch, seed, picks
    ):
        """SA rounds as the walk makes them: ``batch`` proposals from
        one entry state, and the next entry is that state (pick 0) or
        one of the round's proposals, as a Metropolis accept makes it.
        Every proposal is the randrange-based full-check walk's, with
        the RNG where that walk leaves it, and the carried slack means
        neighbor runs ``is_feasible`` once, on the initial state. With
        no headroom every call takes the 16-try fallback."""
        filt = _lenet_filter(headroom, sa_proposal_batch=batch)
        checks = []
        is_feasible = filt.is_feasible
        filt.is_feasible = lambda state: checks.append(1) or (
            is_feasible(state)
        )
        rng = random.Random(seed)
        reference_rng = random.Random(seed)
        entry = filt.initial_state()
        neighbor_checks = 0
        for pick in picks:
            proposals = []
            for _ in range(batch):
                before = len(checks)
                proposal = filt.neighbor(entry, rng)
                neighbor_checks += len(checks) - before
                assert proposal == _full_check_neighbor(
                    filt, entry, reference_rng
                )
                assert rng.getstate() == reference_rng.getstate()
                proposals.append(proposal)
            if headroom == 0:
                assert proposals == [entry] * batch
            if pick:
                entry = proposals[(pick - 1) % batch]
        assert neighbor_checks == 1


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


class TestLockstep:
    """Lock-stepping the stage-1 chains never changes a chain's walk."""

    @pytest.fixture(scope="class")
    def solo_walks(self):
        """Each point's own one-chain walk, per case, computed once."""
        walks = {}

        def solo(case):
            if case not in walks:
                walks[case] = [
                    filt.top_candidates(rng)
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

    def test_chains_must_share_one_model(self):
        filters = [
            _filter(zoo.by_name(name), num_crossbars=10 ** 6)
            for name in ("lenet5", "alexnet_cifar")
        ]
        with pytest.raises(ConfigurationError, match="'out_positions'"):
            lockstep_candidates(
                [(filt, random.Random(4)) for filt in filters]
            )
