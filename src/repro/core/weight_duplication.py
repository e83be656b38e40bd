"""Stage 1 — weight duplication via the SA-based filter (§IV-A).

The constrained problem (Eq. 2)::

    maximize   Performance(WtDup)
    s.t.       sum_i WtDup_i * set_i <= #crossbar

is pruned with simulated annealing over the surrogate energy (Eq. 4)::

    E = stdev_i(WO_i * HO_i / WtDup_i)
        + alpha * stdev_i(AccessVolume_i)
    AccessVolume_i = WtDup_i * (WK_i^2 * CI_i + CO_i)

The first term balances per-layer computation (equal block counts means a
balanced inter-layer pipeline); the second penalizes skewed data-access
demand. The filter returns the ``top_k`` lowest-energy *distinct*
duplication vectors, which Alg. 1 then traverses exactly (line 7).

Each outer design point runs its own SA chain, under its own RNG and
its own Eq. 2 budget. Eq. 4 reads only model constants and ``alpha``,
never the design point, so :func:`lockstep_candidates` drives every
chain of a (model, config) together and scores all their proposal
rounds with one vectorized ``batch_energy`` call per round. A chain
returns the same candidates whether it runs alone
(:meth:`WeightDuplicationFilter.top_candidates`) or beside others.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

# Single numpy gate: repro.core.backend owns the import (and its
# absence), so every batched path degrades identically.
from repro.core.backend import numpy_module, row_sums
from repro.core.config import SynthesisConfig
from repro.errors import ConfigurationError, InfeasibleError
from repro.hardware.crossbar import crossbar_set_size
from repro.nn.model import CNNModel
from repro.optim.annealing import (
    SimulatedAnnealer,
    Stepper,
    anneal_together,
    round_scorer,
)
from repro.utils.mathutils import stdev
from repro.utils.rng import randbelow

WtDup = Tuple[int, ...]


@dataclass
class WeightDuplicationFilter:
    """SA-based WtDup candidate filter for one outer design point."""

    model: CNNModel
    xb_size: int
    res_rram: int
    num_crossbars: int
    config: SynthesisConfig

    def __post_init__(self) -> None:
        layers = self.model.weighted_layers
        self.set_sizes: List[int] = [
            crossbar_set_size(
                layer, self.xb_size, self.res_rram,
                self.model.weight_precision,
            )
            for layer in layers
        ]
        self.out_positions: List[int] = []
        self.volume_units: List[int] = []
        for layer in layers:
            assert layer.output_shape is not None
            _, ho, wo = layer.output_shape
            self.out_positions.append(ho * wo)
            rows = layer.weight_rows  # type: ignore[attr-defined]
            cols = getattr(layer, "out_channels", None)
            if cols is None:
                cols = layer.out_features  # type: ignore[attr-defined]
            self.volume_units.append(rows + cols)
        floor = sum(self.set_sizes)
        if floor > self.num_crossbars:
            raise InfeasibleError(
                f"{self.model.name}: needs {floor} crossbars at WtDup=1 "
                f"but the budget is {self.num_crossbars}"
            )
        # WtDup_i never exceeds the layer's output count: more copies than
        # output positions cannot be used within one image.
        self.dup_caps: List[int] = list(self.out_positions)
        # neighbor's memo: the last entry state and its slack (None:
        # infeasible), and the last proposals returned from it with
        # theirs. An SA round draws up to sa_proposal_batch proposals
        # from one entry state, and the next entry is that state or one
        # of them, so that many are kept. Holding the states keeps the
        # identity checks sound.
        self._entry: Optional[WtDup] = None
        self._entry_slack: Optional[int] = None
        self._carried: Deque[Tuple[WtDup, int]] = deque(
            maxlen=self.config.sa_proposal_batch
        )

    # ------------------------------------------------------------------
    # Eq. 2 feasibility
    # ------------------------------------------------------------------
    def crossbars_used(self, wt_dup: Sequence[int]) -> int:
        return sum(
            dup * size for dup, size in zip(wt_dup, self.set_sizes)
        )

    def is_feasible(self, wt_dup: Sequence[int]) -> bool:
        if any(d < 1 for d in wt_dup):
            return False
        if any(d > cap for d, cap in zip(wt_dup, self.dup_caps)):
            return False
        return self.crossbars_used(wt_dup) <= self.num_crossbars

    # ------------------------------------------------------------------
    # Eq. 4 energy
    # ------------------------------------------------------------------
    def energy(self, wt_dup: Sequence[int]) -> float:
        steps = [
            positions / dup
            for positions, dup in zip(self.out_positions, wt_dup)
        ]
        volumes = [
            dup * unit for dup, unit in zip(wt_dup, self.volume_units)
        ]
        return stdev(steps) + self.config.sa_alpha * stdev(volumes)

    def batch_energy(self, states: Sequence[Sequence[int]]) -> List[float]:
        """Eq. 4 for a whole proposal round, vectorized over states.

        Cross-layer reductions accumulate in layer order (the same
        left-to-right sums :func:`repro.utils.mathutils.stdev` runs),
        so each value is bit-identical to :meth:`energy` on that state
        — the SA walk cannot depend on whether numpy scored it.
        """
        np = numpy_module()
        if np is None:
            return [self.energy(state) for state in states]
        # int64 converts faster than float64, and the int -> float64
        # promotions below are exact.
        dup = np.array(states, dtype=np.int64)
        steps = np.array(self.out_positions, dtype=np.float64) / dup
        volumes = dup * np.array(
            self.volume_units, dtype=np.float64
        )
        energies = self._batch_stdev(steps)
        energies = energies + self.config.sa_alpha * self._batch_stdev(
            volumes
        )
        return energies.tolist()

    def _batch_stdev(self, values):
        """Population stdev over the layer axis, ordered like ``stdev``.

        The two cross-layer reductions are :func:`repro.core.backend.
        row_sums` — left-to-right layer order, so they reproduce
        :func:`repro.utils.mathutils.stdev` bit-for-bit (the
        conformance suite pins them against
        :func:`repro.utils.mathutils.ordered_sum`)."""
        np = numpy_module()
        count = values.shape[1]
        mu = row_sums(values) / count
        spread = row_sums((values - mu[:, None]) ** 2)
        return np.sqrt(spread / count)

    # ------------------------------------------------------------------
    # Initial state: greedy balanced fill
    # ------------------------------------------------------------------
    def initial_state(self) -> WtDup:
        """All-ones, then repeatedly duplicate the layer with the most
        remaining steps while the budget allows — a cheap approximation
        of the balanced pipeline the SA walk refines.

        Each pick is the first layer, by most steps and then lowest
        index, that can still grow. A layer that cannot grow now never
        can (the budget only shrinks and its count stays put), so it
        leaves the heap for good.
        """
        dup = [1] * len(self.set_sizes)
        remaining = self.num_crossbars - self.crossbars_used(dup)

        def entry(index: int) -> Tuple[float, int]:
            return -(self.out_positions[index] / dup[index]), index

        heap = [entry(index) for index in range(len(dup))]
        heapq.heapify(heap)
        while heap:
            index = heap[0][1]
            cost = self.set_sizes[index]
            if cost <= remaining and dup[index] < self.dup_caps[index]:
                dup[index] += 1
                remaining -= cost
                heapq.heapreplace(heap, entry(index))
            else:
                heapq.heappop(heap)
        return tuple(dup)

    # ------------------------------------------------------------------
    # SA neighborhood
    # ------------------------------------------------------------------
    def neighbor(self, state: WtDup, rng: random.Random) -> WtDup:
        """One feasible random move: grow, shrink, or shift duplication.

        Retries a few times to find a feasible move; falls back to the
        unchanged state when the budget is completely tight. Each draw
        is :func:`repro.utils.rng.randbelow`, ``rng.randrange``'s value
        and RNG state.

        A move touches at most two entries, so once ``state`` itself is
        known feasible a move is feasible exactly when the touched
        entries stay within ``[1, cap]`` and the crossbars it adds fit
        the state's slack; only the state returned is copied. An
        infeasible ``state`` (never produced by the walk) gets the full
        :meth:`is_feasible` check per try. Every proposal returned from
        a feasible state carries its own slack, and the SA walk's next
        entry state is its entry or one of its last proposals, so
        ``is_feasible`` runs once per walk, on the initial state.
        """
        slack = (
            self._entry_slack if state is self._entry
            else self._slack_of(state)
        )
        n_layers = len(state)
        caps, sizes = self.dup_caps, self.set_sizes
        for _ in range(16):
            move = randbelow(rng, 3)
            if move == 0:  # grow one layer
                grown, shrunk = randbelow(rng, n_layers), -1
            elif move == 1:  # shrink one layer
                grown, shrunk = -1, randbelow(rng, n_layers)
            else:  # shift: shrink one, grow another
                shrunk = randbelow(rng, n_layers)
                grown = randbelow(rng, n_layers)
                if shrunk == grown:
                    continue
            if slack is not None:
                added = 0
                if grown >= 0:
                    if state[grown] >= caps[grown]:
                        continue
                    added = sizes[grown]
                if shrunk >= 0:
                    if state[shrunk] <= 1:
                        continue
                    added -= sizes[shrunk]
                if added > slack:
                    continue
            candidate = list(state)
            if grown >= 0:
                candidate[grown] += 1
            if shrunk >= 0:
                candidate[shrunk] -= 1
            if slack is None:
                if self.is_feasible(candidate):
                    return tuple(candidate)
                continue
            proposal = tuple(candidate)
            self._carried.append((proposal, slack - added))
            return proposal
        return state

    def _slack_of(self, state: WtDup) -> Optional[int]:
        """Make ``state`` :meth:`neighbor`'s entry state; return its
        spare crossbars, None when it is infeasible: carried when it is
        one of the last proposals, computed otherwise."""
        for proposal, slack in self._carried:
            if proposal is state:
                break
        else:
            slack = (
                self.num_crossbars - self.crossbars_used(state)
                if self.is_feasible(state) else None
            )
        self._entry = tuple(state)  # a tuple is its own copy
        self._entry_slack = slack
        self._carried.clear()
        return slack

    # ------------------------------------------------------------------
    # Entry point (Alg. 1 line 6)
    # ------------------------------------------------------------------
    def chain(self, rng: random.Random) -> Stepper:
        """This point's SA chain under ``rng``, as an ask/tell stepper
        (:meth:`repro.optim.annealing.SimulatedAnnealer.steps`) from the
        greedy initial state."""
        annealer = SimulatedAnnealer(
            energy=self.energy,
            neighbor=self.neighbor,
            state_key=lambda state: state,
            rng=rng,
            schedule=self.config.sa_schedule,
            proposal_batch=self.config.sa_proposal_batch,
        )
        return annealer.steps(
            self.initial_state(), top_k=self.config.num_wtdup_candidates
        )

    def top_candidates(self, rng: random.Random) -> List[WtDup]:
        """Run the SA filter; return the best distinct WtDup vectors."""
        return lockstep_candidates([(self, rng)])[0]


def lockstep_candidates(
    chains: Sequence[Tuple[WeightDuplicationFilter, random.Random]],
) -> List[List[WtDup]]:
    """Stage 1 for many outer points of one (model, config) at once.

    Each ``(filter, rng)`` pair is one point's SA chain. The chains run
    in lock-step (:func:`repro.optim.annealing.anneal_together`): every
    round's proposals, from all chains, are scored by one
    ``batch_energy`` call of the first filter. That is sound because
    Eq. 4 reads only ``out_positions``, ``volume_units`` and
    ``sa_alpha``, which all filters of one (model, config) share, and
    because ``batch_energy`` scores each state bit-identically to
    :meth:`WeightDuplicationFilter.energy`. So each list, in chain
    order, equals what that filter's :meth:`~WeightDuplicationFilter.
    top_candidates` returns alone under the same RNG. Filters that
    differ in one of those three inputs raise
    :class:`~repro.errors.ConfigurationError` naming it.
    """
    if not chains:
        return []
    head = chains[0][0]
    for filt, _rng in chains[1:]:
        for name, value, expected in (
            ("out_positions", filt.out_positions, head.out_positions),
            ("volume_units", filt.volume_units, head.volume_units),
            ("sa_alpha", filt.config.sa_alpha, head.config.sa_alpha),
        ):
            if value != expected:
                raise ConfigurationError(
                    f"SA chains differ in Eq. 4's input {name!r}: only "
                    "one model's points under one sa_alpha lock-step"
                )
    ranked = anneal_together(
        [filt.chain(rng) for filt, rng in chains],
        round_scorer(head.energy, head.batch_energy),
    )
    return [[state for state, _energy in archive] for archive in ranked]
