"""Simulated annealing with top-K solution retention.

The SA-based weight-duplication filter (§IV-A2) does not want just the
single best state — it selects "30 weight duplication candidates with the
lowest energy-function values" that later stages traverse. The engine
therefore maintains a bounded archive of the best *distinct* states seen
anywhere along the walk.

Neighbor proposals are drawn and scored in *rounds*
(``proposal_batch``); a ``proposal_batch`` of 1 is exactly the classic
chain (see the class docstring for the larger-round semantics).

The WtDup filter runs its chains in a loop of its own, lock-stepped
and over moves instead of states
(:func:`repro.core.weight_duplication.lockstep_candidates`).
:class:`SimulatedAnnealer` over the filter's ``energy`` and
``neighbor``, one state at a time, is the reference its tests hold that
loop to.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import (
    Callable,
    Generic,
    Hashable,
    List,
    Tuple,
    TypeVar,
)

from repro.errors import ConfigurationError

State = TypeVar("State")


@dataclass(frozen=True)
class AnnealingSchedule:
    """Geometric cooling schedule.

    ``T_k = initial_temperature * cooling_rate^k`` with ``steps_per_temp``
    proposals at each temperature, stopping at ``min_temperature``.
    """

    initial_temperature: float = 1.0
    min_temperature: float = 1e-3
    cooling_rate: float = 0.95
    steps_per_temp: int = 20

    def __post_init__(self) -> None:
        if self.initial_temperature <= 0 or self.min_temperature <= 0:
            raise ConfigurationError("temperatures must be positive")
        if self.min_temperature > self.initial_temperature:
            raise ConfigurationError(
                "min_temperature must not exceed initial_temperature"
            )
        if not 0.0 < self.cooling_rate < 1.0:
            raise ConfigurationError("cooling_rate must lie in (0, 1)")
        if self.steps_per_temp < 1:
            raise ConfigurationError("steps_per_temp must be >= 1")

    def temperatures(self) -> List[float]:
        """The full cooling ladder."""
        temps = []
        temp = self.initial_temperature
        while temp >= self.min_temperature:
            temps.append(temp)
            temp *= self.cooling_rate
        return temps


class SimulatedAnnealer(Generic[State]):
    """Minimize ``energy`` over states connected by ``neighbor``.

    Parameters
    ----------
    energy:
        The objective to minimize (Eq. 4 for the WtDup filter).
    neighbor:
        Proposes a random neighbor of a state. Must not mutate its input.
    state_key:
        Maps a state to a hashable identity for archive deduplication.
    rng:
        Source of randomness; pass a seeded ``random.Random`` for
        reproducible searches.
    proposal_batch:
        Neighbor proposals drawn and scored per round. ``1`` (default)
        reproduces the classic chain exactly — one proposal, one
        Metropolis decision, identical RNG stream. With ``b > 1`` a
        round draws ``b`` proposals from the round's entry state, scores
        them together, then walks them in draw order with sequential
        Metropolis acceptance against the evolving current state. The
        walk differs from the one-at-a-time chain (later proposals in a
        round are "stale" when an earlier one is accepted) but stays
        fully deterministic under a fixed seed.
    """

    def __init__(
        self,
        energy: Callable[[State], float],
        neighbor: Callable[[State, random.Random], State],
        state_key: Callable[[State], Hashable],
        rng: random.Random,
        schedule: AnnealingSchedule = AnnealingSchedule(),
        proposal_batch: int = 1,
    ) -> None:
        if proposal_batch < 1:
            raise ConfigurationError("proposal_batch must be >= 1")
        self.energy = energy
        self.neighbor = neighbor
        self.state_key = state_key
        self.rng = rng
        self.schedule = schedule
        self.proposal_batch = proposal_batch
        self.evaluations = 0

    def run(
        self, initial: State, top_k: int = 1
    ) -> List[Tuple[State, float]]:
        """Anneal from ``initial``; return the best ``top_k`` distinct
        states, sorted by ascending energy (best first). The list always
        holds at least one entry."""
        if top_k < 1:
            raise ConfigurationError("top_k must be >= 1")
        neighbor, rng, state_key = self.neighbor, self.rng, self.state_key
        current = initial
        current_energy = self.energy(current)
        self.evaluations = 1
        archive: dict = {state_key(current): (current, current_energy)}

        for temperature in self.schedule.temperatures():
            remaining = self.schedule.steps_per_temp
            while remaining > 0:
                round_size = min(self.proposal_batch, remaining)
                remaining -= round_size
                proposals = [
                    neighbor(current, rng) for _ in range(round_size)
                ]
                self.evaluations += round_size
                energies = [self.energy(state) for state in proposals]
                for candidate, candidate_energy in zip(
                    proposals, energies
                ):
                    delta = candidate_energy - current_energy
                    if delta <= 0 or rng.random() < math.exp(
                        -delta / temperature
                    ):
                        current = candidate
                        current_energy = candidate_energy
                        key = state_key(current)
                        best = archive.get(key)
                        if best is None or current_energy < best[1]:
                            archive[key] = (current, current_energy)
                            # Keep the archive bounded: drop the worst
                            # states once it is far larger than needed.
                            if len(archive) > 4 * top_k + 64:
                                survivors = sorted(
                                    archive.items(),
                                    key=lambda kv: kv[1][1],
                                )[: 2 * top_k]
                                archive = dict(survivors)

        ranked = sorted(archive.values(), key=lambda pair: pair[1])
        return ranked[:top_k]
