"""Save and reload synthesis solutions.

``SynthesisSolution.to_json`` serializes the *decision variables* (the
design point, WtDup vector and MacAlloc gene) plus the metrics; this
module closes the loop: :func:`load_solution` reconstructs a live
solution from that JSON plus the model, by re-running the deterministic
tail of the flow (dataflow spec, components allocation, evaluation) —
no DSE. This is how a synthesized design ships: a small JSON artifact
that any holder of the model can re-materialize and simulate — the
practical complement to §I's "one-click" pitch, since the four-hour
Alg. 1 search (§V) runs once and its winner replays in milliseconds.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.core.component_alloc import allocate_components
from repro.core.dataflow import make_spec
from repro.core.evaluator import PerformanceEvaluator
from repro.core.macro_partition import MacroPartition
from repro.core.solution import SynthesisSolution
from repro.errors import ConfigurationError
from repro.hardware.params import HardwareParams
from repro.hardware.power import PowerBudget
from repro.hardware.tech import DEFAULT_TECHNOLOGY
from repro.nn.model import CNNModel


def save_solution(
    solution: SynthesisSolution, path: Union[str, Path]
) -> None:
    """Write the solution's JSON artifact."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(solution.to_json())


def load_solution(
    path: Union[str, Path],
    model: CNNModel,
    params: HardwareParams = None,
    max_blocks_per_layer: int = 8,
    tech: str = DEFAULT_TECHNOLOGY,
) -> SynthesisSolution:
    """Re-materialize a solution from its JSON artifact and the model.

    The artifact stores decisions, not the model; the caller supplies
    the same CNN the design was synthesized for — and, for designs
    synthesized under a non-default technology, the same device, via
    ``tech`` (or an explicit ``params``). A model/artifact mismatch
    (wrong layer count) raises :class:`ConfigurationError`. Metrics
    are *recomputed*, which doubles as an integrity check — the loader
    verifies the stored throughput against the re-evaluation, so a
    wrong-technology reload is caught rather than silently mispriced.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.loads(handle.read())
    return solution_from_payload(
        payload, model, params=params,
        max_blocks_per_layer=max_blocks_per_layer, tech=tech,
    )


def solution_from_payload(
    payload: dict,
    model: CNNModel,
    params: HardwareParams = None,
    max_blocks_per_layer: int = 8,
    tech: str = DEFAULT_TECHNOLOGY,
) -> SynthesisSolution:
    """The dict-level half of :func:`load_solution`.

    This is the hook the serve-layer result store uses: stored results
    embed the artifact payload (``SynthesisSolution.to_payload``), and
    a client holding the model re-materializes the live solution from
    it — re-running only the deterministic tail of the flow, never the
    DSE. ``params`` (explicit constants) or ``tech`` (a registered
    profile name) selects the device the artifact was synthesized
    under; the allocation mode comes from the artifact, which records
    ``specialized_macros`` when it is False. A manual baseline's
    artifact (``<model>@<design>``, from :func:`repro.baselines.
    build_manual_solution`) does not record its fixed allocation, so
    it raises :class:`ConfigurationError` rather than reload under
    PIMSYN's.
    """
    hw = (
        params if params is not None
        else HardwareParams.from_technology(tech)
    )
    expected_model = payload["model"]
    if model.name != expected_model:
        base, _, design = expected_model.partition("@")
        if base == model.name:
            raise ConfigurationError(
                f"artifact {expected_model!r} is the {design!r} baseline "
                "design, whose manual allocation is not in the artifact: "
                "rebuild it with build_manual_solution"
            )
        raise ConfigurationError(
            f"artifact was synthesized for {expected_model!r}, "
            f"got model {model.name!r}"
        )
    wt_dup = payload["wt_dup"]
    if len(wt_dup) != model.num_weighted_layers:
        raise ConfigurationError(
            f"artifact has {len(wt_dup)} WtDup entries; model has "
            f"{model.num_weighted_layers} weighted layers"
        )

    point = payload["design_point"]
    budget = PowerBudget.from_constraint(
        payload["total_power"], point["ratio_rram"], point["xb_size"],
        point["res_rram"], hw,
    )
    spec = make_spec(
        model, wt_dup,
        xb_size=point["xb_size"],
        res_rram=point["res_rram"],
        res_dac=point["res_dac"],
        params=hw,
        max_blocks_per_layer=max_blocks_per_layer,
    )
    specialized = payload.get("specialized_macros", True)
    if not isinstance(specialized, bool):
        raise ConfigurationError(
            f"artifact field 'specialized_macros' must be a boolean, "
            f"got {specialized!r}"
        )
    partition = MacroPartition.from_gene(tuple(payload["gene"]))
    allocation = allocate_components(
        spec.geometries, partition.macro_groups, budget, hw,
        point["res_dac"], model,
        sharing_pairs=partition.sharing_pairs,
        identical_macros=not specialized,
    )
    evaluation = PerformanceEvaluator(spec, budget).evaluate(
        partition.macro_groups, allocation
    )

    stored = payload["metrics"]["throughput_img_s"]
    if stored > 0 and abs(evaluation.throughput - stored) > 0.05 * stored:
        raise ConfigurationError(
            f"re-evaluated throughput {evaluation.throughput:.1f} "
            f"deviates >5% from the stored {stored:.1f} - artifact, "
            "model, or hardware parameters do not match"
        )

    return SynthesisSolution(
        model_name=payload["model"],
        total_power=payload["total_power"],
        ratio_rram=point["ratio_rram"],
        res_rram=point["res_rram"],
        xb_size=point["xb_size"],
        res_dac=point["res_dac"],
        wt_dup=tuple(wt_dup),
        partition=partition,
        allocation=allocation,
        evaluation=evaluation,
        spec=spec,
        budget=budget,
        specialized_macros=specialized,
    )
