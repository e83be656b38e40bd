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
its own Eq. 2 budget: the walk of
:class:`repro.optim.annealing.SimulatedAnnealer` over
:meth:`WeightDuplicationFilter.energy` and
:meth:`WeightDuplicationFilter.neighbor` from the greedy initial state.
Eq. 4 reads only model constants and ``alpha``, never the design point,
so :func:`lockstep_candidates` steps every chain of a (model, config)
in one loop and scores all their proposal rounds with one vectorized
``batch_energy`` call per round. A chain returns the same candidates
whether it runs alone (:meth:`WeightDuplicationFilter.top_candidates`),
beside others, or through ``SimulatedAnnealer``, the reference the
tests hold the loop to.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

# Single numpy gate: repro.core.backend owns the import (and its
# absence), so every batched path degrades identically.
from repro.core.backend import numpy_module, row_sums
from repro.core.config import SynthesisConfig
from repro.errors import ConfigurationError, InfeasibleError
from repro.hardware.crossbar import crossbar_set_size
from repro.nn.model import CNNModel
from repro.utils.mathutils import stdev

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

    def slack_of(self, wt_dup: Sequence[int]) -> Optional[int]:
        """Spare crossbars of ``wt_dup``; None when it is infeasible."""
        if not self.is_feasible(wt_dup):
            return None
        return self.num_crossbars - self.crossbars_used(wt_dup)

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

        ``states`` is a sequence of WtDup vectors, or a ``(states,
        layers)`` int64 array, which is used without a copy.
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
        dup = np.asarray(states, dtype=np.int64)
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
        unchanged state when the budget is completely tight. The move
        is :meth:`draw_moves`'s, so it takes ``rng.randrange``'s draws
        and leaves the RNG where they leave it.
        """
        grown: List[int] = []
        shrunk: List[int] = []
        self.draw_moves(state, self.slack_of(state), rng, 1, grown, shrunk)
        return apply_move(state, grown[0], shrunk[0])

    def draw_moves(
        self,
        state: Sequence[int],
        slack: Optional[int],
        rng: random.Random,
        count: int,
        grown: List[int],
        shrunk: List[int],
    ) -> None:
        """Draw ``count`` SA moves off ``state``, appending each move's
        grown and shrunk layer to ``grown`` and ``shrunk`` (-1: none;
        both -1 when 16 tries found no feasible move, so the move keeps
        the state).

        A move grows one layer, shrinks one, or shifts a copy from one
        to another, so it touches at most two entries. From a feasible
        state with ``slack`` spare crossbars (:meth:`slack_of`) a move
        is then feasible exactly when the touched entries stay within
        ``[1, cap]`` and the crossbars it adds fit the slack. With
        ``slack`` None the state is infeasible, and each try gets the
        full :meth:`is_feasible` check.

        Each draw is :func:`repro.utils.rng.randbelow`'s, decoded from
        ``rng.getrandbits`` in place: the value and RNG state of
        ``rng.randrange``, without a call per draw, since stage 1
        draws hundreds of thousands of times per synthesis.
        """
        getrandbits = rng.getrandbits
        n_layers = len(state)
        bits = n_layers.bit_length()
        caps, sizes = self.dup_caps, self.set_sizes
        for _ in range(count):
            for _ in range(16):
                move = getrandbits(2)  # randbelow(rng, 3)
                while move >= 3:
                    move = getrandbits(2)
                layer = getrandbits(bits)  # randbelow(rng, n_layers)
                while layer >= n_layers:
                    layer = getrandbits(bits)
                if move == 0:  # grow one layer
                    up, down = layer, -1
                elif move == 1:  # shrink one layer
                    up, down = -1, layer
                else:  # shift: shrink one, grow another
                    up = getrandbits(bits)
                    while up >= n_layers:
                        up = getrandbits(bits)
                    if up == layer:
                        continue
                    down = layer
                if slack is None:
                    if self.is_feasible(apply_move(state, up, down)):
                        break
                    continue
                added = 0
                if up >= 0:
                    if state[up] >= caps[up]:
                        continue
                    added = sizes[up]
                if down >= 0:
                    if state[down] <= 1:
                        continue
                    added -= sizes[down]
                if added <= slack:
                    break
            else:
                up = down = -1
            grown.append(up)
            shrunk.append(down)

    # ------------------------------------------------------------------
    # Entry point (Alg. 1 line 6)
    # ------------------------------------------------------------------
    def top_candidates(self, rng: random.Random) -> List[WtDup]:
        """Run the SA filter; return the best distinct WtDup vectors."""
        return lockstep_candidates([(self, rng)])[0]


def apply_move(state: Sequence[int], grown: int, shrunk: int) -> WtDup:
    """``state`` with one more copy of layer ``grown`` and one fewer of
    layer ``shrunk`` (-1: no layer), as a new WtDup."""
    moved = list(state)
    if grown >= 0:
        moved[grown] += 1
    if shrunk >= 0:
        moved[shrunk] -= 1
    return tuple(moved)


class _Walk:
    """One SA chain between rounds: its filter and RNG, its current
    state with that state's slack and energy, and its archive of
    distinct states and their energies in insertion order, kept as
    :meth:`repro.optim.annealing.SimulatedAnnealer.steps` keeps it."""

    __slots__ = ("filt", "rng", "state", "slack", "energy", "archive")

    def __init__(
        self, filt: WeightDuplicationFilter, rng: random.Random
    ) -> None:
        self.filt = filt
        self.rng = rng
        self.state = filt.initial_state()
        self.slack = filt.slack_of(self.state)
        self.energy = filt.energy(self.state)
        self.archive: Dict[WtDup, float] = {self.state: self.energy}

    def walk_round(
        self,
        energies: List[float],
        grown: List[int],
        shrunk: List[int],
        rows: range,
        temperature: float,
        top_k: int,
    ) -> int:
        """Walk this chain's proposals, ``rows`` of the round, in draw
        order with Metropolis acceptance against the evolving current
        state, building a WtDup only for an accepted move. Returns the
        row of the last accepted move, which the next round starts
        from, or -1."""
        random_ = self.rng.random
        entry, current, archive = self.state, self.energy, self.archive
        accepted, state = -1, entry
        for row in rows:
            energy = energies[row]
            delta = energy - current
            if delta <= 0 or random_() < math.exp(-delta / temperature):
                current = energy
                accepted = row
                state = apply_move(entry, grown[row], shrunk[row])
                best = archive.get(state)
                if best is None or energy < best:
                    archive[state] = energy
                    # Keep the archive bounded: drop the worst states
                    # once it is far larger than needed.
                    if len(archive) > 4 * top_k + 64:
                        archive = dict(
                            sorted(archive.items(), key=itemgetter(1))[
                                : 2 * top_k
                            ]
                        )
        if accepted >= 0:
            self.state, self.energy, self.archive = state, current, archive
            if self.slack is not None:
                sizes = self.filt.set_sizes
                up, down = grown[accepted], shrunk[accepted]
                self.slack -= (sizes[up] if up >= 0 else 0) - (
                    sizes[down] if down >= 0 else 0
                )
        return accepted

    def ranked(self, top_k: int) -> List[WtDup]:
        """The best ``top_k`` distinct states, lowest energy first."""
        ranked = sorted(self.archive.items(), key=itemgetter(1))
        return [state for state, _energy in ranked[:top_k]]


def lockstep_candidates(
    chains: Sequence[Tuple[WeightDuplicationFilter, random.Random]],
) -> List[List[WtDup]]:
    """Stage 1 for many outer points of one (model, config) at once.

    Each ``(filter, rng)`` pair is one point's SA chain, and one loop
    steps every chain's rounds. In each round every chain draws its
    ``sa_proposal_batch`` moves off its current state
    (:meth:`WeightDuplicationFilter.draw_moves`), one ``batch_energy``
    call of the first filter scores every chain's proposals — a
    ``(proposals, layers)`` int64 array built from the chains' states
    plus their moves, or the proposals' tuples when numpy does not
    import — and each chain walks its own proposals with Metropolis
    acceptance (:class:`_Walk`). An accepted move carries its slack,
    so ``is_feasible`` runs once per chain, on its initial state.

    One scorer serves every chain because Eq. 4 reads only
    ``out_positions``, ``volume_units`` and ``sa_alpha``, and
    ``batch_energy`` scores each state bit-identically to
    :meth:`WeightDuplicationFilter.energy`; one loop steps them because
    they share ``sa_schedule``, ``sa_proposal_batch`` and
    ``num_wtdup_candidates``. So each list, in chain order, is what
    :class:`repro.optim.annealing.SimulatedAnnealer` over that filter's
    ``energy`` and ``neighbor`` returns from its initial state under the
    same RNG. Filters that differ in one of those six inputs raise
    :class:`~repro.errors.ConfigurationError` naming it.
    """
    if not chains:
        return []
    head = chains[0][0]
    config = head.config
    for filt, _rng in chains[1:]:
        for name, value, expected in (
            ("out_positions", filt.out_positions, head.out_positions),
            ("volume_units", filt.volume_units, head.volume_units),
            ("sa_alpha", filt.config.sa_alpha, config.sa_alpha),
            ("sa_schedule", filt.config.sa_schedule, config.sa_schedule),
            (
                "sa_proposal_batch", filt.config.sa_proposal_batch,
                config.sa_proposal_batch,
            ),
            (
                "num_wtdup_candidates", filt.config.num_wtdup_candidates,
                config.num_wtdup_candidates,
            ),
        ):
            if value != expected:
                raise ConfigurationError(
                    f"SA chains differ in {name!r}: only one model's "
                    "points under one SA configuration lock-step"
                )
    walks = [_Walk(filt, rng) for filt, rng in chains]
    top_k = config.num_wtdup_candidates
    schedule = config.sa_schedule
    np = numpy_module()
    if np is not None:
        n_layers = len(head.out_positions)
        # Each chain's current state as a row, plus one spare column
        # that takes the -1 (no layer) of every move.
        entries = np.array(
            [walk.state + (0,) for walk in walks], dtype=np.int64
        )
    for temperature in schedule.temperatures():
        remaining = schedule.steps_per_temp
        while remaining > 0:
            size = min(config.sa_proposal_batch, remaining)
            remaining -= size
            grown: List[int] = []
            shrunk: List[int] = []
            for walk in walks:
                walk.filt.draw_moves(
                    walk.state, walk.slack, walk.rng, size, grown, shrunk
                )
            if np is None:
                energies = head.batch_energy([
                    apply_move(walks[row // size].state, up, down)
                    for row, (up, down) in enumerate(zip(grown, shrunk))
                ])
            else:
                proposals = np.repeat(entries, size, axis=0)
                rows = np.arange(len(grown))
                proposals[rows, grown] += 1
                proposals[rows, shrunk] -= 1
                energies = head.batch_energy(proposals[:, :n_layers])
            moved, accepted = [], []
            for index, walk in enumerate(walks):
                start = index * size
                row = walk.walk_round(
                    energies, grown, shrunk, range(start, start + size),
                    temperature, top_k,
                )
                if row >= 0:
                    moved.append(index)
                    accepted.append(row)
            if np is not None and moved:
                entries[moved] = proposals[accepted]
    return [walk.ranked(top_k) for walk in walks]
