"""Stage 3 — EA-based macro partitioning (§IV-C, Alg. 2).

A gene encodes ``MacAlloc`` exactly as the paper does: an integer vector
with ``MacAlloc_i = owner * 1000 + #macros_i`` where ``owner == i`` for a
layer owning its macro group, or ``owner == j < i`` when layer ``i``
shares layer ``j``'s macros (rule b). The partition rules (§IV-C1):

a) a layer occupies one or more macros;
b) two layers may share the same macro set (pairs only, smaller index
   owns the set);
c) layer ``i`` splits across at most ``WtDup_i * ceil(WK^2*CI/XbSize)``
   macros, and every macro holds at least one crossbar.

Two mutation operators drive the search — ``mutate_num`` perturbs a
group's macro count, ``mutate_share`` toggles pair sharing — and fitness
is the full downstream evaluation (components allocation + analytical
model), mirroring Fig. 3's EA loop through the components-allocation
stage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.backend import ENCODING_BASE, numpy_available
from repro.core.batch_eval import BatchPerformanceEvaluator
from repro.core.component_alloc import (
    ComponentAllocation,
    allocate_components,
)
from repro.core.config import SynthesisConfig
from repro.core.evaluator import EvaluationResult, PerformanceEvaluator
from repro.errors import ConfigurationError, InfeasibleError, PimsynError
from repro.hardware.power import PowerBudget
from repro.ir.builder import DataflowSpec
from repro.optim.evolution import EvolutionEngine, evolve_together

Gene = Tuple[int, ...]

#: ``mutate_num``'s #macros steps, and the bit length of its draw.
_DELTAS = (-2, -1, 1, 2)
_DELTA_BITS = len(_DELTAS).bit_length()

#: The float metrics a gene's evaluation shares with BatchEvaluation.
_METRIC_FIELDS = (
    "period", "latency", "throughput", "tops", "power",
    "tops_per_watt", "energy_per_image", "edp",
)


def encode_gene(owners: Sequence[int], macro_counts: Sequence[int]) -> Gene:
    """Pack (owner, #macros) pairs into the paper's integer encoding."""
    if len(owners) != len(macro_counts):
        raise ConfigurationError("owners and macro_counts length mismatch")
    gene = []
    for index, (owner, count) in enumerate(zip(owners, macro_counts)):
        if owner > index:
            raise ConfigurationError(
                f"layer {index}: owner {owner} must be <= layer index"
            )
        if count < 1 or count >= ENCODING_BASE:
            raise ConfigurationError(
                f"layer {index}: #macros {count} outside [1, "
                f"{ENCODING_BASE})"
            )
        gene.append(owner * ENCODING_BASE + count)
    return tuple(gene)


def decode_gene(gene: Gene) -> Tuple[List[int], List[int]]:
    """Unpack a gene into (owners, macro_counts)."""
    owners, counts = [], []
    for index, value in enumerate(gene):
        owner, count = divmod(value, ENCODING_BASE)
        if count < 1:
            raise ConfigurationError(
                f"layer {index}: decoded #macros {count} < 1"
            )
        if owner > index:
            raise ConfigurationError(
                f"layer {index}: decoded owner {owner} > index"
            )
        owners.append(owner)
        counts.append(count)
    return owners, counts


@dataclass(frozen=True)
class MacroPartition:
    """A decoded, materialized macro partition."""

    gene: Gene
    macro_groups: Tuple[Tuple[int, ...], ...]  # macro ids per layer
    sharing_pairs: Tuple[Tuple[int, int], ...]  # (owner j, sharer i)
    num_macros: int

    @classmethod
    def from_gene(cls, gene: Gene) -> "MacroPartition":
        """Assign concrete macro ids: owner groups in layer order."""
        owners, counts = decode_gene(gene)
        group_of_owner: Dict[int, Tuple[int, ...]] = {}
        next_id = 0
        for index, owner in enumerate(owners):
            if owner == index:
                size = counts[index]
                group_of_owner[index] = tuple(
                    range(next_id, next_id + size)
                )
                next_id += size
        groups: List[Tuple[int, ...]] = []
        pairs: List[Tuple[int, int]] = []
        sharer_of: Dict[int, int] = {}
        for index, owner in enumerate(owners):
            if owner == index:
                groups.append(group_of_owner[index])
            else:
                if owner not in group_of_owner:
                    raise ConfigurationError(
                        f"layer {index} shares with {owner}, which is not "
                        "an owner"
                    )
                if owner in sharer_of:
                    raise ConfigurationError(
                        f"layers {sharer_of[owner]} and {index} both "
                        f"share layer {owner}'s macros (rule b allows "
                        "pairs only)"
                    )
                sharer_of[owner] = index
                groups.append(group_of_owner[owner])
                pairs.append((owner, index))
        return cls(
            gene=gene,
            macro_groups=tuple(groups),
            sharing_pairs=tuple(pairs),
            num_macros=next_id,
        )


class MacroPartitionExplorer:
    """Alg. 2: evolve MacAlloc, scoring through stage 4 + the evaluator.

    ``cache``/``cache_context`` plug the explorer into its task
    runner's evaluation memo (see :mod:`repro.core.executor`): fitness
    values are stored under ``(cache_context, gene)``, so a memo
    carried over from an interrupted run replays its (model, hardware
    params, design point, gene) evaluations. Without them the engine
    keeps a private per-run memo.

    The EA and NSGA-II score whole generations of a chunk's explorers
    through :class:`PopulationScorer`: the batched evaluator of
    :mod:`repro.core.batch_eval` when numpy imports (bit-identical
    metrics, one array op per stage instead of one Python call per
    gene), this explorer's :meth:`score` / :meth:`score_fields` gene by
    gene otherwise. Either way :meth:`score` remains the scalar
    reference for individual genes (winner materialization, tests).

    ``spec`` may also be a zero-argument callable that builds the spec.
    A DSE launch passes one, with ``caps``, its rule-c caps from the
    task grid (:attr:`~repro.core.backend.TaskGrid.group_cap`). Scored
    by its chunk's batched evaluator, it then builds neither its spec
    nor its scalar evaluator: :attr:`spec` builds the spec the first
    time the scalar oracle needs it.
    """

    def __init__(
        self,
        spec: Union[DataflowSpec, Callable[[], DataflowSpec]],
        budget: PowerBudget,
        res_dac: int,
        config: SynthesisConfig,
        rng: random.Random,
        cache: Optional[MutableMapping] = None,
        cache_context: Optional[Hashable] = None,
        caps: Optional[Sequence[int]] = None,
    ) -> None:
        self._spec = spec
        self.budget = budget
        self.res_dac = res_dac
        self.config = config
        self.rng = rng
        self.cache = cache
        self.cache_context = cache_context
        self._batch_evaluator: Optional[BatchPerformanceEvaluator] = None
        self._evaluator: Optional[PerformanceEvaluator] = None
        self.last_report = None  # EvolutionReport of the latest EA run
        if caps is None:
            caps = [
                min(geo.wt_dup * geo.row_tiles, geo.crossbars)
                for geo in self.spec.geometries
            ]
        # Rule c caps: WtDup * row-tile count, and >= 1 crossbar per macro.
        self.caps: List[int] = [
            max(1, min(cap, ENCODING_BASE - 1)) for cap in caps
        ]
        # The bit lengths of the operators' fixed-range draws.
        self._cap_bits = [cap.bit_length() for cap in self.caps]
        self._layer_bits = len(self.caps).bit_length()

    @property
    def spec(self) -> DataflowSpec:
        """The stage-2 spec, built on first use when given as a
        callable."""
        if callable(self._spec):
            self._spec = self._spec()
        return self._spec

    @property
    def evaluator(self) -> PerformanceEvaluator:
        """The scalar oracle's evaluator, built on first use."""
        if self._evaluator is None:
            self._evaluator = PerformanceEvaluator(self.spec, self.budget)
        return self._evaluator

    # ------------------------------------------------------------------
    # Evaluation plumbing
    # ------------------------------------------------------------------
    def score(
        self, gene: Gene
    ) -> Tuple[float, Optional[ComponentAllocation],
               Optional[EvaluationResult]]:
        """Fitness of a gene; infeasible genes score zero."""
        partition = MacroPartition.from_gene(gene)
        pairs = (
            partition.sharing_pairs
            if self.config.enable_macro_sharing else ()
        )
        try:
            allocation = allocate_components(
                self.spec.geometries,
                partition.macro_groups,
                self.budget,
                self.spec.params,
                self.res_dac,
                self.spec.model,
                sharing_pairs=pairs,
                identical_macros=not self.config.specialized_macros,
            )
        except InfeasibleError:
            return 0.0, None, None
        result = self.evaluator.evaluate(
            partition.macro_groups, allocation
        )
        return result.fitness, allocation, result

    def score_fields(self, gene: Gene) -> Dict[str, object]:
        """One gene's :class:`~repro.core.batch_eval.BatchEvaluation`
        fields from the scalar oracle (:meth:`score`), an infeasible
        gene taking the batched kernel's masked values (metrics 0.0,
        ``bottleneck_layer`` -1, ``num_macros`` 0): the row each
        batched score is held ``==`` to."""
        fitness, _allocation, result = self.score(gene)
        return _fields_of(gene, fitness, result)

    def score_winner(
        self, gene: Gene, searched: Mapping[str, object]
    ) -> Tuple[ComponentAllocation, EvaluationResult]:
        """Scalar re-score of a winning gene whose fields the search
        scored as ``searched`` (a :meth:`score_fields`-shaped mapping
        holding at least a positive ``fitness``, so feasible).

        The search may have scored it through the numpy kernel, which
        is held ``==`` to the scalar oracle on every field. A field of
        ``searched`` the oracle scores differently, or a winner the
        oracle finds infeasible, means the two engines diverged: that
        raises :class:`PimsynError` naming the field, rather than
        :class:`InfeasibleError`, which callers treat as a skipped
        task.
        """
        fitness, allocation, result = self.score(gene)
        if allocation is None or result is None:
            raise PimsynError(
                f"gene {tuple(gene)} scored fitness "
                f"{searched['fitness']!r} in the search, but the scalar "
                "oracle finds it infeasible (backend "
                f"{self.config.backend!r}): the engines diverged"
            )
        oracle = _fields_of(gene, fitness, result)
        for name, value in searched.items():
            if oracle[name] != value:
                raise PimsynError(
                    f"gene {tuple(gene)} scored {name} {value!r} in the "
                    f"search, but the scalar oracle scores "
                    f"{oracle[name]!r} (backend "
                    f"{self.config.backend!r}): the engines diverged"
                )
        return allocation, result

    @property
    def batch_evaluator(self) -> BatchPerformanceEvaluator:
        """The lazily built batched engine for this (spec, budget,
        DAC); it needs numpy."""
        if self._batch_evaluator is None:
            self._batch_evaluator = BatchPerformanceEvaluator(
                self.spec,
                self.budget,
                self.res_dac,
                enable_macro_sharing=self.config.enable_macro_sharing,
                identical_macros=not self.config.specialized_macros,
            )
        return self._batch_evaluator

    # ------------------------------------------------------------------
    # Population initialization
    # ------------------------------------------------------------------
    def initial_population(self, size: int) -> List[Gene]:
        """Seed genes: one-macro-per-layer, cap-sized, and random mixes.

        Every layer owns its group and every count lies in ``[1,
        cap]``, so the genes are built directly: :func:`encode_gene`'s
        checks cannot fail on them. Each random count is
        ``rng.randint(1, cap)``'s draw, decoded from ``getrandbits``
        in place like :meth:`mutate_num`'s.
        """
        owned = [index * ENCODING_BASE for index in range(len(self.caps))]
        population: List[Gene] = [
            tuple(base + 1 for base in owned),
            tuple(base + cap for base, cap in zip(owned, self.caps)),
        ]
        getrandbits = self.rng.getrandbits
        draws = list(zip(owned, self.caps, self._cap_bits))
        while len(population) < size:
            gene = []
            for base, cap, bits in draws:
                count = getrandbits(bits)  # randbelow(rng, cap)
                while count >= cap:
                    count = getrandbits(bits)
                gene.append(base + 1 + count)
            population.append(tuple(gene))
        return population

    # ------------------------------------------------------------------
    # Alg. 2's mutation operators
    # ------------------------------------------------------------------
    def mutate_num(self, gene: Gene, rng: random.Random) -> Gene:
        """Perturb the #macros of one randomly chosen macro group.

        Edits the encoded gene in place of a decode/encode round trip,
        with the same draws and the same result on every valid gene.
        Each draw is :func:`repro.utils.rng.randbelow`'s, decoded from
        ``rng.getrandbits`` in place with the bit lengths the explorer
        computed once, as :meth:`repro.core.weight_duplication.
        WeightDuplicationFilter.draw_moves` does: ``rng.randrange``
        and ``rng.choice``'s values and RNG states, without a call per
        draw.
        """
        getrandbits = rng.getrandbits
        n_layers = len(gene)
        index = getrandbits(self._layer_bits)  # randbelow(rng, n_layers)
        while index >= n_layers:
            index = getrandbits(self._layer_bits)
        target = gene[index] // ENCODING_BASE  # the group's owner
        cap = self.caps[target]
        if cap == 1:
            return gene
        step = getrandbits(_DELTA_BITS)  # randbelow(rng, len(_DELTAS))
        while step >= len(_DELTAS):
            step = getrandbits(_DELTA_BITS)
        value = gene[target]
        count = value % ENCODING_BASE
        value += max(1, min(cap, count + _DELTAS[step])) - count
        return gene[:target] + (value,) + gene[target + 1:]

    def mutate_share(self, gene: Gene, rng: random.Random) -> Gene:
        """Toggle pair-sharing status of one randomly chosen layer
        (on the encoded gene, drawing like :meth:`mutate_num`). Layer
        ``i`` shares exactly when ``gene[i] < i * ENCODING_BASE``: its
        owner is below ``i``."""
        if not self.config.enable_macro_sharing:
            return gene
        getrandbits = rng.getrandbits
        n_layers = len(gene)
        index = getrandbits(self._layer_bits)  # randbelow(rng, n_layers)
        while index >= n_layers:
            index = getrandbits(self._layer_bits)
        owner, count = divmod(gene[index], ENCODING_BASE)
        if owner != index:
            # Currently sharing: dissolve the pair.
            partner = index
        else:
            # Currently an owner: try to share with an earlier eligible
            # owner.
            shared_owners = {
                value // ENCODING_BASE
                for i, value in enumerate(gene) if value < i * ENCODING_BASE
            }
            if index in shared_owners:
                return gene  # someone shares with us already (pairs only)
            candidates = [
                j for j in range(index)
                if gene[j] > j * ENCODING_BASE and j not in shared_owners
            ]
            if not candidates:
                return gene
            bits = len(candidates).bit_length()
            pick = getrandbits(bits)  # randbelow(rng, len(candidates))
            while pick >= len(candidates):
                pick = getrandbits(bits)
            partner = candidates[pick]
        return (
            gene[:index] + (partner * ENCODING_BASE + count,)
            + gene[index + 1:]
        )

    # ------------------------------------------------------------------
    # Entry point (Alg. 1 line 10)
    # ------------------------------------------------------------------
    def _engine(self) -> EvolutionEngine[Gene]:
        """This launch's Alg. 2 EA, on the explorer's RNG and memo;
        :func:`explore_together` scores it."""
        return EvolutionEngine(
            score=None,
            mutations=[self.mutate_num, self.mutate_share],
            gene_key=lambda gene: gene,
            rng=self.rng,
            population_size=self.config.ea_population_size,
            offspring_per_gen=self.config.ea_offspring_per_gen,
            max_generations=self.config.ea_max_generations,
            patience=self.config.ea_patience,
            cache=self.cache,
            cache_key=lambda gene: (self.cache_context, gene),
        )

    def explore(
        self,
    ) -> Tuple[MacroPartition, ComponentAllocation, EvaluationResult]:
        """Run the EA; return the best feasible partition found.

        The one-launch case of :func:`explore_together`, its winner
        materialized through the scalar oracle and held ``==`` to the
        search's row (:meth:`score_winner`). Raises
        :class:`InfeasibleError` if no gene in the search was feasible
        (e.g. the fixed overhead of even one macro per layer exceeds
        the peripheral budget).
        """
        (found,) = explore_together([self])
        if found is None:
            raise InfeasibleError(
                "EA found no feasible macro partition under the power "
                "budget"
            )
        gene, row = found
        allocation, result = self.score_winner(gene, row)
        return MacroPartition.from_gene(gene), allocation, result


def _fields_of(
    gene: Gene, fitness: float, result: Optional[EvaluationResult]
) -> Dict[str, object]:
    """A gene's :meth:`MacroPartitionExplorer.score_fields` row from
    its scalar score (``result`` None: infeasible)."""
    row: Dict[str, object] = {
        name: 0.0 if result is None else getattr(result, name)
        for name in _METRIC_FIELDS
    }
    row.update(
        feasible=result is not None,
        fitness=fitness,
        bottleneck_layer=(
            -1 if result is None else result.bottleneck_layer
        ),
        num_macros=(
            0 if result is None
            else MacroPartition.from_gene(gene).num_macros
        ),
    )
    return row


class PopulationScorer:
    """The one population scorer of the EA and NSGA-II launches of
    ``explorers``, which must score one model under one config:
    ``fitness(genes, lanes)`` and :meth:`MacroPartitionExplorer.
    score_fields`-shaped ``rows(genes, lanes)``, where ``lanes[k]`` is
    the position of the explorer that scores ``genes[k]``.

    When numpy imports, each call is one :meth:`~repro.core.batch_eval.
    BatchPerformanceEvaluator.evaluate_population` of ``evaluator``,
    whose context row ``k`` scores ``explorers[k]``: a task runner's
    chunk evaluator, built over the task grid, or a lone explorer's
    own :attr:`~MacroPartitionExplorer.batch_evaluator` when none is
    given. Otherwise each gene goes through its explorer's scalar
    oracle (:meth:`~MacroPartitionExplorer.score` /
    :meth:`~MacroPartitionExplorer.score_fields`). The two give ``==``
    values, and a gene's value never depends on the other genes in the
    call.
    """

    def __init__(
        self,
        explorers: Sequence[MacroPartitionExplorer],
        evaluator: Optional[BatchPerformanceEvaluator] = None,
    ) -> None:
        if numpy_available():
            if evaluator is None:
                if len(explorers) != 1:
                    raise ConfigurationError(
                        "the scorer of several explorers needs their "
                        "chunk's batched evaluator"
                    )
                evaluator = explorers[0].batch_evaluator
            self.fitness = evaluator.fitness_of
            self.rows = lambda genes, lanes: (
                evaluator.evaluate_population(genes, lanes).rows()
            )
        else:
            self.fitness = lambda genes, lanes: [
                explorers[lane].score(gene)[0]
                for gene, lane in zip(genes, lanes)
            ]
            self.rows = lambda genes, lanes: [
                explorers[lane].score_fields(gene)
                for gene, lane in zip(genes, lanes)
            ]


#: One launch's best feasible gene and its fields as the search's
#: engine scores them (a :meth:`MacroPartitionExplorer.score_fields`
#: row), or None when the search found no feasible gene.
Explored = Optional[Tuple[Gene, Dict[str, object]]]


def explore_together(
    explorers: Sequence[MacroPartitionExplorer],
    evaluator: Optional[BatchPerformanceEvaluator] = None,
) -> List[Explored]:
    """Run the EAs of ``explorers`` in lock-step: each one's best
    feasible gene with its fields, or None when its search found no
    feasible gene.

    Every launch is built as :meth:`MacroPartitionExplorer.explore`
    builds it alone, on its own RNG, memo keys and report
    (``last_report``), and all of them run under one
    :func:`repro.optim.evolution.evolve_together`. Each round scores
    every launch's memo misses with one :class:`PopulationScorer` call
    (over ``evaluator``, the explorers' chunk evaluator), so each
    launch returns what it returns alone. The explorers must score one
    model under one config and share one memo (a task runner's). The
    winners' fields come from one more call of the same scorer over
    all of them; the design that ships is the one held ``==`` to the
    scalar oracle (:meth:`~MacroPartitionExplorer.score_winner`).
    """
    if not explorers:
        return []
    engines = []
    populations = []
    for explorer in explorers:
        engine = explorer._engine()
        explorer.last_report = engine.report
        engines.append(engine)
        populations.append(
            explorer.initial_population(explorer.config.ea_population_size)
        )
    scorer = PopulationScorer(explorers, evaluator)
    best = evolve_together(engines, populations, scorer.fitness)
    lanes = [
        lane for lane, (_gene, fitness) in enumerate(best)
        if fitness > 0.0
    ]
    genes = [best[lane][0] for lane in lanes]
    found: List[Explored] = [None] * len(explorers)
    if genes:
        for lane, gene, row in zip(
            lanes, genes, scorer.rows(genes, lanes)
        ):
            found[lane] = (gene, row)
    return found
