"""Simulated annealing with top-K solution retention.

The SA-based weight-duplication filter (§IV-A2) does not want just the
single best state — it selects "30 weight duplication candidates with the
lowest energy-function values" that later stages traverse. The engine
therefore maintains a bounded archive of the best *distinct* states seen
anywhere along the walk.

Neighbor proposals are drawn and scored in *rounds*
(``proposal_batch``); a ``proposal_batch`` of 1 is exactly the classic
chain (see the class docstring for the larger-round semantics). The
walk is an ask/tell stepper (:meth:`SimulatedAnnealer.steps`): it
yields each round's proposals and receives their energies, so one
driver (:func:`anneal_together`) can score the rounds of many steppers
in a single call; :meth:`SimulatedAnnealer.run` is that driver over
one chain. It is the package's one search driver: the evolutionary
engines' ``run()`` and the EA launches of a DSE wave
(:func:`repro.optim.evolution.evolve_together`) drive their (mu +
lambda) stepper with it too (:class:`repro.optim.evolution.
MuPlusLambda`).

The WtDup filter steps its chains in a loop of its own, over moves
instead of states
(:func:`repro.core.weight_duplication.lockstep_candidates`), and
:class:`SimulatedAnnealer` over the filter's ``energy`` and
``neighbor`` is the reference its tests hold that loop to.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import (
    Callable,
    Generator,
    Generic,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.errors import ConfigurationError

State = TypeVar("State")
Ranked = List[Tuple[State, float]]
#: A chain as an ask/tell stepper: yields a proposal round, receives the
#: round's energies in draw order, returns the ranked archive.
Stepper = Generator[List[State], List[float], Ranked]


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
    batch_energy:
        Optional population-level energy: maps a state sequence to the
        values ``energy`` would return state by state, such as the
        WtDup filter's vectorized Eq. 4. :meth:`run` scores each round
        of two or more proposals with one call (:func:`round_scorer`).
    proposal_batch:
        Neighbor proposals drawn and scored per round. ``1`` (default)
        reproduces the classic chain exactly — one proposal, one
        Metropolis decision, identical RNG stream. With ``b > 1`` a
        round draws ``b`` proposals from the round's entry state, scores
        them together, then walks them in draw order with sequential
        Metropolis acceptance against the evolving current state. The
        walk differs from the one-at-a-time chain (later proposals in a
        round are "stale" when an earlier one is accepted) but stays
        fully deterministic under a fixed seed and independent of
        whether ``batch_energy`` is set, and of which driver scores it.
    """

    def __init__(
        self,
        energy: Callable[[State], float],
        neighbor: Callable[[State, random.Random], State],
        state_key: Callable[[State], Hashable],
        rng: random.Random,
        schedule: AnnealingSchedule = AnnealingSchedule(),
        batch_energy: Optional[
            Callable[[Sequence[State]], Sequence[float]]
        ] = None,
        proposal_batch: int = 1,
    ) -> None:
        if proposal_batch < 1:
            raise ConfigurationError("proposal_batch must be >= 1")
        self.energy = energy
        self.neighbor = neighbor
        self.state_key = state_key
        self.rng = rng
        self.schedule = schedule
        self.batch_energy = batch_energy
        self.proposal_batch = proposal_batch
        self.evaluations = 0

    def steps(self, initial: State, top_k: int = 1) -> Stepper:
        """Anneal from ``initial`` as an ask/tell stepper.

        Scores ``initial`` with ``energy`` itself, then yields each
        proposal round and expects that round's energies sent back in
        draw order (:func:`anneal_together` does so, for one chain in
        :meth:`run` or for many at once). Returns the best ``top_k``
        distinct states, sorted by ascending energy (best first); the
        list always holds at least one entry.
        """
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
                energies = yield proposals
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

    def run(self, initial: State, top_k: int = 1) -> Ranked:
        """Anneal from ``initial``; return the best ``top_k`` distinct
        states (see :meth:`steps`), scoring each round through
        :func:`round_scorer`."""
        return anneal_together(
            [self.steps(initial, top_k)],
            round_scorer(self.energy, self.batch_energy),
        )[0]


def round_scorer(
    energy: Callable[[State], float],
    batch_energy: Optional[
        Callable[[Sequence[State]], Sequence[float]]
    ] = None,
) -> Callable[[List[State]], List[float]]:
    """The scoring rule for a round of states: one ``batch_energy``
    call when it is set and the round holds two or more states,
    otherwise ``energy`` state by state."""

    def score(states: List[State]) -> List[float]:
        if batch_energy is not None and len(states) > 1:
            return [float(v) for v in batch_energy(states)]
        return [energy(state) for state in states]

    return score


def anneal_together(
    steppers: Sequence[Stepper],
    score: Callable[[List[State]], Sequence[float]],
) -> List[Ranked]:
    """Drive ask/tell steppers in lock-step; return what each returns
    (an SA chain's archive, an EA's best gene, an NSGA-II front).

    Each round, the proposals of every live stepper go to one
    ``score(states)`` call, concatenated in stepper order, and each
    stepper is sent its own slice. A stepper that finishes drops out,
    so chains with different schedules or round sizes can share the
    driver. A chain's walk depends only on its own draws and on the
    energies of its own states, so lock-stepping never changes what a
    chain returns — given a ``score`` whose value for a state does not
    depend on the other states in the call.

    Raises :class:`ConfigurationError` when ``score`` returns a
    different number of values than it was given states.
    """
    results: List[Optional[Ranked]] = [None] * len(steppers)
    replies: list = [(index, None) for index in range(len(steppers))]
    while replies:
        pending = []
        for index, reply in replies:
            try:
                pending.append((index, steppers[index].send(reply)))
            except StopIteration as finished:
                results[index] = finished.value
        if not pending:
            break
        states = [state for _index, round_ in pending for state in round_]
        energies = list(score(states))
        if len(energies) != len(states):
            raise ConfigurationError(
                f"energy scorer returned {len(energies)} values for "
                f"{len(states)} states"
            )
        replies, start = [], 0
        for index, round_ in pending:
            replies.append((index, energies[start:start + len(round_)]))
            start += len(round_)
    return results  # type: ignore[return-value]
