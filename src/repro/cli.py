"""Command-line interface: ``python -m repro <command>``.

The paper pitches PIMSYN as "one-click transformation from CNN
applications to PIM architectures"; the CLI is that click:

- ``python -m repro models [--json]`` — list the built-in model zoo;
- ``python -m repro synthesize --model vgg16 --power 200`` — run the
  DSE and print/save the solution;
- ``python -m repro simulate --model vgg16 --cycle`` — replay the
  synthesized design on the integer-cycle pipelined simulator,
  cross-validate it against the analytical model, and (with
  ``--fault-rate``) inject deterministic crossbar/NoC faults;
- ``python -m repro peak`` — the Table IV peak-efficiency comparison;
- ``python -m repro sweep --model alexnet_cifar --powers 2 4 8`` —
  power-constraint sweep;
- ``python -m repro serve --store DIR`` — the persistent synthesis
  service (job queue + content-addressed result store + JSON API);
- ``python -m repro batch --manifest sweep.yaml --store DIR`` — run a
  (model x power x config) manifest through the shared store;
- ``python -m repro store stats|gc --store DIR`` — inspect a result
  store or compact it (stale claims, dead memos); opening a flat
  (schema-1) store moves it into its shards first;
- ``python -m repro tech list|show|export|compare`` — the device-
  technology registry: inspect profiles, export/load the JSON format,
  synthesize one model under every technology. ``--tech NAME`` on
  ``synthesize``/``sweep``/``peak``/``serve`` selects the device;
- ``python -m repro backends`` — the engines of the batched DSE paths
  (task-grid bounds, EA/NSGA-II population scoring, the SA filter's
  sums): the numpy kernels when numpy imports, the scalar oracles
  otherwise. There is nothing to select; ``--check numpy`` scores a
  population both ways and requires every field ``==``.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from typing import List, Optional

from repro.analysis import format_table
from repro.core import Pimsyn, SynthesisConfig
from repro.core.design_space import DesignSpace
from repro.errors import PimsynError, SynthesisInterrupted
from repro.hardware.params import HardwareParams
from repro.hardware.tech import (
    DEFAULT_TECHNOLOGY,
    available_technologies,
    get_technology,
    load_technology,
)
from repro.nn import zoo
from repro.nn.onnx_io import load_model


def _load(args) -> object:
    """Resolve the model from --model (zoo) or --json (file)."""
    if getattr(args, "json", None):
        return load_model(args.json)
    return zoo.by_name(args.model)


def _tech(args) -> str:
    """Resolve --tech / --tech-file into a registered profile name.

    A --tech-file profile is registered first, so --tech may name it;
    with --tech-file alone, the loaded profile becomes the run's
    technology.
    """
    tech = getattr(args, "tech", None) or DEFAULT_TECHNOLOGY
    tech_file = getattr(args, "tech_file", None)
    if tech_file:
        profile = load_technology(tech_file, replace=True)
        if getattr(args, "tech", None) is None:
            tech = profile.name
    get_technology(tech)  # fail fast on unknown names
    return tech


def _flag(dest: str) -> str:
    """The command-line flag of the argparse destination ``dest``."""
    return "--" + dest.replace("_", "-")


def _check_outputs(args, *dests: str) -> None:
    """Fail before any work starts when an output path given for one of
    ``dests`` cannot be written: its directory is missing, or it names
    a directory."""
    for dest in dests:
        path = getattr(args, dest, None)
        if not path:
            continue
        if os.path.isdir(path):
            reason = errno.EISDIR
        elif not os.path.isdir(os.path.dirname(path) or "."):
            reason = errno.ENOENT
        else:
            continue
        raise PimsynError(
            f"cannot write {_flag(dest)} {path}: {os.strerror(reason)}"
        )


def _write(args, dest: str, text: str) -> None:
    """Write ``text`` to the output path given for ``dest``; a failure
    is one error naming the flag and the path."""
    path = getattr(args, dest)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise PimsynError(
            f"cannot write {_flag(dest)} {path}: {exc.strerror or exc}"
        ) from exc


def _config(args, power: float) -> SynthesisConfig:
    jobs = getattr(args, "jobs", 1)
    extras = {"tech": _tech(args)}
    if getattr(args, "pareto", False):
        extras["pareto"] = True
    if getattr(args, "objectives", None):
        extras["objectives"] = tuple(args.objectives)
    if getattr(args, "full", False):
        return SynthesisConfig(
            total_power=power, seed=args.seed, jobs=jobs, **extras,
        )
    return SynthesisConfig.fast(
        total_power=power, seed=args.seed, jobs=jobs, **extras,
    )


def cmd_models(args) -> int:
    import json

    catalog = zoo.model_catalog()
    if getattr(args, "json", False):
        print(json.dumps({"models": catalog}, indent=2))
        return 0
    rows = [
        (
            entry["name"], str(tuple(entry["input_shape"])),
            entry["weighted_layers"],
            f"{entry['gmacs']:.3f}",
            f"{entry['million_weights']:.2f}",
        )
        for entry in catalog
    ]
    print(format_table(
        ["model", "input", "weighted layers", "GMACs", "Mweights"],
        rows, title="built-in model zoo",
    ))
    return 0


def cmd_synthesize(args) -> int:
    _check_outputs(args, "out", "front_csv", "schedule")
    model = _load(args)
    if args.power is not None:
        power = args.power
    else:
        probe = SynthesisConfig.fast(tech=_tech(args))
        power = DesignSpace(model, probe).minimum_feasible_power(
            margin=args.margin
        )
        print(f"no --power given; using feasibility floor x "
              f"{args.margin} = {power:.1f} W")
    config = _config(args, power)
    if getattr(args, "front_csv", None) and not config.pareto:
        print("--front-csv requires --pareto", file=sys.stderr)
        return 2
    progress = print if args.verbose else None
    synthesizer = Pimsyn(model, config, progress=progress)
    front = None
    if config.pareto:
        front = synthesizer.synthesize_pareto()
        solution = front.solution
        print(front.front_table())
        print()
        print("best point (first objective):")
    else:
        solution = synthesizer.synthesize()
    print(solution.summary())
    if args.verbose:
        report = synthesizer.report
        nsga = (
            f"{report.nsga_runs} NSGA-II runs, " if report.nsga_runs
            else ""
        )
        print(
            f"  DSE: {report.outer_points} outer points, "
            f"{report.ea_runs} EA runs ({report.pruned_tasks} pruned), "
            f"{nsga}"
            f"{report.cache_hits} cache hits / "
            f"{report.cache_misses} misses, jobs={report.jobs}, "
            f"{report.wall_seconds:.2f} s"
        )
    if args.chip:
        print()
        print(solution.build_accelerator().summary())
    if args.out:
        document = front.to_json() if front is not None \
            else solution.to_json()
        _write(args, "out", document)
        artifact = "front" if front is not None else "solution"
        print(f"\n{artifact} written to {args.out}")
    if getattr(args, "front_csv", None) and front is not None:
        _write(args, "front_csv", front.to_csv())
        print(f"front CSV written to {args.front_csv}")
    if args.schedule:
        from repro.sim import SimulationEngine
        from repro.sim.schedule import export_schedule

        engine = SimulationEngine(
            spec=solution.spec, allocation=solution.allocation,
            macro_groups=solution.partition.macro_groups,
        )
        trace = engine.run(solution.build_dag())
        schedule = export_schedule(
            trace, solution.partition.macro_groups
        )
        _write(args, "schedule", schedule.to_json())
        print(f"dataflow schedule written to {args.schedule} "
              f"({schedule.total_steps} control steps)")
    return 0


def cmd_simulate(args) -> int:
    """Synthesize (or reuse) a design and replay it on a simulator."""
    _check_outputs(args, "trace_out", "report_out")
    model = _load(args)
    if args.power is not None:
        power = args.power
    else:
        probe = SynthesisConfig.fast(tech=_tech(args))
        power = DesignSpace(model, probe).minimum_feasible_power(
            margin=args.margin
        )
        print(f"no --power given; using feasibility floor x "
              f"{args.margin} = {power:.1f} W")
    config = _config(args, power)
    progress = print if args.verbose else None
    solution = Pimsyn(model, config, progress=progress).synthesize()
    print(solution.summary())
    print()

    if not args.cycle:
        if args.fault_rate:
            print("error: --fault-rate requires --cycle (the windowed "
                  "engine has no fault model)", file=sys.stderr)
            return 2
        engine = solution.simulation_engine()
        trace = engine.run(solution.build_dag())
        from repro.sim.metrics import extrapolate

        metrics = extrapolate(trace, solution.spec)
        print(f"windowed simulation - {model.name}")
        print(f"  throughput        {metrics.throughput:.2f} img/s "
              f"({metrics.tops:.3f} TOPS)")
        print(f"  latency           {metrics.latency:.3e} s")
        print(f"  bottleneck        layer {metrics.bottleneck_layer}")
        if args.trace_out:
            _write(args, "trace_out", trace.to_jsonl() + "\n")
            print(f"trace written to {args.trace_out} "
                  f"({len(trace)} scheduled IRs)")
        return 0

    simulator = solution.cycle_simulator(
        fault_rate=args.fault_rate, fault_seed=args.fault_seed,
    )
    print(f"cycle engine: {config.sim_engine} (auto)")
    result = simulator.run()
    print(result.report.summary())
    if args.trace_out:
        _write(args, "trace_out", result.trace.to_jsonl() + "\n")
        print(f"trace written to {args.trace_out} "
              f"({len(result.trace)} scheduled IRs)")
    if args.report_out:
        import json

        _write(
            args, "report_out",
            json.dumps(result.report.to_payload(), indent=2),
        )
        print(f"cycle report written to {args.report_out}")
    if args.fault_rate == 0.0:
        validation = solution.cross_validate(tol=args.tol)
        print()
        print(f"cross-validation vs analytical model "
              f"(tol {validation.tolerance:.3f}):")
        print(f"  throughput dev    "
              f"{validation.throughput_deviation:.4f}")
        print(f"  energy dev        {validation.energy_deviation:.4f}")
        validation.ensure()
        print("  agreement         OK")
    else:
        print()
        print("cross-validation skipped (fault injection active; the "
              "analytical model has no fault semantics)")
    return 0


def cmd_peak(args) -> int:
    from repro.baselines import (
        atomlayer_design,
        isaac_design,
        pipelayer_design,
        prime_design,
        puma_design,
    )
    from repro.baselines.specs import PUBLISHED_PEAK_TOPS_PER_WATT
    from repro.hardware.peak import best_matched_peak

    params = HardwareParams.from_technology(_tech(args))
    best = best_matched_peak(params)
    rows = [(
        "pimsyn", round(best.tops_per_watt, 3),
        PUBLISHED_PEAK_TOPS_PER_WATT["pimsyn"],
        f"xb={best.xb_size} rram={best.res_rram} dac={best.res_dac}",
    )]
    for fn in (pipelayer_design, isaac_design, prime_design,
               puma_design, atomlayer_design):
        design = fn()
        point = design.peak_point(params)
        rows.append((
            design.name, round(point.tops_per_watt, 3),
            PUBLISHED_PEAK_TOPS_PER_WATT[design.name],
            f"xb={design.xb_size} rram={design.res_rram} "
            f"dac={design.res_dac}",
        ))
    print(format_table(
        ["design", "measured TOPS/W", "paper TOPS/W", "config"], rows,
        title="peak power efficiency (Table IV)",
    ))
    return 0


def cmd_sweep(args) -> int:
    from repro.analysis import power_sweep

    model = _load(args)
    config = SynthesisConfig.fast(
        seed=args.seed, jobs=getattr(args, "jobs", 1),
        tech=_tech(args),
    )
    rows = power_sweep(model, args.powers, config=config)
    table = [
        (
            f"{r.total_power:.2f}",
            "yes" if r.feasible else "no",
            round(r.throughput, 1) if r.feasible else "-",
            round(r.tops_per_watt, 4) if r.feasible else "-",
            r.num_macros if r.feasible else "-",
        )
        for r in rows
    ]
    print(format_table(
        ["power (W)", "feasible", "img/s", "TOPS/W", "macros"],
        table, title=f"power sweep - {model.name}",
    ))
    return 0


def _install_sigterm_handler() -> None:
    """Make SIGTERM behave like Ctrl-C so the engine's graceful
    interrupt path (pool teardown + partial-memo persistence) runs
    under process supervisors too."""
    import signal

    def _raise_interrupt(_signum, _frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _raise_interrupt)
    except ValueError:
        pass  # not the main thread (embedded use); Ctrl-C still works


def cmd_serve(args) -> int:
    import threading

    from repro.serve import JobScheduler, ResultStore, make_server

    store = ResultStore(args.store, shards=args.shards)
    scheduler = JobScheduler(
        store, workers=args.workers, synth_jobs=args.jobs,
        name="serve", default_tech=_tech(args),
        max_queue_depth=args.max_queue,
    )
    server = make_server(
        args.host, args.port, scheduler, store,
        verbose=args.verbose, quota=args.quota,
        reuse_port=args.reuse_port,
    )
    host, port = server.server_address[:2]
    print(f"synthesis service on http://{host}:{port}")
    print(f"  store: {store.root}  "
          f"({store.stats(include_models=False).results} results in "
          f"{store.num_shards} shards)")
    print(f"  workers: {args.workers}  DSE jobs/worker: {args.jobs}  "
          f"default tech: {scheduler.default_tech}")
    print(f"  queue bound: {args.max_queue or 'unbounded'}  "
          f"client quota: {args.quota or 'unbounded'}")
    print("  POST /jobs   GET /jobs/<id>   GET /results/<key>   "
          "GET /store/stats   GET /scheduler/stats   POST /store/gc")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        thread.join()
    except KeyboardInterrupt:
        print("\nshutting down (waiting for running jobs)...")
    finally:
        server.shutdown()
        scheduler.shutdown(wait=True)
    stats = store.stats(include_models=False)
    print(f"store: {stats.results} results, {stats.hits} hits, "
          f"{stats.misses} misses this session")
    return 0


def cmd_batch(args) -> int:
    import json

    from repro.serve import ResultStore, run_batch_file

    _check_outputs(args, "out")
    store = ResultStore(args.store)
    progress = print if args.verbose else None
    report = run_batch_file(
        args.manifest, store,
        workers=args.workers, synth_jobs=args.jobs,
        progress=progress,
    )
    print(report.to_table())
    if args.out:
        _write(args, "out", json.dumps(report.to_payload(), indent=2))
        print(f"\nbatch report written to {args.out}")
    return 1 if report.failures else 0


#: What a result store's root holds: its manifest and shards, or the
#: flat directories of a pre-sharding store, which opening moves. A
#: trailing slash matches a directory only.
_STORE_MARKERS = ("store.json", "shards/", "results/", "memo/")


def cmd_store(args) -> int:
    import json

    from repro.serve import ResultStore

    # A mistyped path must not become a new, empty store, nor a store
    # be written into a directory that holds none.
    if not os.path.isdir(args.store):
        raise PimsynError(
            f"--store {args.store} is not an existing directory"
        )
    if not any(
        os.path.exists(os.path.join(args.store, name))
        for name in _STORE_MARKERS
    ):
        raise PimsynError(
            f"--store {args.store} holds no result store (no "
            "store.json, shards/, results/ or memo/)"
        )
    store = ResultStore(args.store)
    if args.store_command == "stats":
        stats = store.stats(include_models=True)
        print(json.dumps(stats.to_payload(), indent=2))
        return 0
    if args.store_command == "gc":
        report = store.gc(stale_claims_after=args.stale_after)
        print(json.dumps(report.to_payload(), indent=2))
        return 0
    raise PimsynError(f"unknown store command {args.store_command!r}")


def cmd_tech(args) -> int:
    import json

    if args.tech_file:
        load_technology(args.tech_file, replace=True)
    command = args.tech_command
    if command == "list":
        rows = []
        for name in available_technologies():
            profile = get_technology(name)
            rows.append((
                name, profile.cell,
                "/".join(str(c) for c in profile.res_rram_choices),
                "/".join(str(x) for x in profile.xb_size_choices),
                f"{profile.adc_resolution_range[0]}-"
                f"{profile.adc_resolution_range[1]}",
                profile.description,
            ))
        print(format_table(
            ["technology", "cell", "ResRram", "XbSize", "ADC bits",
             "description"],
            rows, title="registered device technologies",
        ))
        return 0
    if command == "show":
        profile = get_technology(args.name)
        rows = [
            ("cell", profile.cell),
            ("crossbar latency", f"{profile.crossbar_latency:.3e} s"),
            ("crossbar power", ", ".join(
                f"{k}: {v * 1e3:.3g} mW"
                for k, v in sorted(profile.crossbar_power.items())
            )),
            ("ADC sample rate", f"{profile.adc_sample_rate:.3e} S/s"),
            ("ADC range", f"{profile.adc_resolution_range[0]}-"
                          f"{profile.adc_resolution_range[1]} bits"),
            ("DAC power", ", ".join(
                f"{k}: {v * 1e6:.3g} uW"
                for k, v in sorted(profile.dac_power.items())
            )),
            ("eDRAM", f"{profile.edram_size_bytes // 1024} KB @ "
                      f"{profile.edram_power * 1e3:.3g} mW"),
            ("NoC router", f"{profile.noc_power * 1e3:.3g} mW"),
            ("XbSize domain", str(profile.xb_size_choices)),
            ("ResRram domain", str(profile.res_rram_choices)),
            ("ResDAC domain", str(profile.res_dac_choices)),
            ("RatioRram domain", str(profile.ratio_rram_choices)),
            ("precision", f"act {profile.act_precision} / weight "
                          f"{profile.weight_precision} bits"),
        ]
        print(format_table(
            ["constant", "value"], rows,
            title=f"technology {profile.name} - {profile.description}",
        ))
        return 0
    if command == "export":
        profile = get_technology(args.name)
        document = profile.to_json()
        if args.out:
            _write(args, "out", document + "\n")
            print(f"technology {profile.name!r} written to {args.out}")
        else:
            print(document)
        return 0
    if command == "compare":
        from repro.analysis import tech_compare_table, technology_sweep

        _check_outputs(args, "out")
        model = _load(args)
        rows = technology_sweep(
            model,
            total_power=args.power,
            techs=args.techs,
            seed=args.seed,
            margin=args.margin,
        )
        print(tech_compare_table(rows, model_name=model.name))
        if args.out:
            payload = {
                "model": model.name,
                "rows": [r.__dict__ for r in rows],
            }
            _write(args, "out", json.dumps(payload, indent=2))
            print(f"\ncomparison written to {args.out}")
        return 0
    raise PimsynError(f"unknown tech command {command!r}")


def cmd_backends(args) -> int:
    from repro.core.backend import backend_status, get_backend

    rows = []
    for name, ok, detail in backend_status():
        runs = "*" if name == SynthesisConfig().backend else ""
        rows.append((
            name, "yes" if ok else "no", runs, detail,
        ))
    print(format_table(
        ["backend", "available", "runs", "description / reason"],
        rows, title="batched DSE engines (chosen by numpy import)",
    ))
    if getattr(args, "check", None):
        get_backend(args.check)  # raises if not usable
        print(f"backend {args.check!r} is available")
        if args.check == "numpy":
            _backend_probe()
        else:
            print("it is the scalar oracle: nothing to compare against")
    return 0


def _backend_probe() -> None:
    """Score a real 16-gene population with the numpy kernel and
    require every field ``==`` to the scalar oracle, one
    ``MacroPartitionExplorer.score`` per gene. Raises PimsynError on
    divergence — `repro backends --check numpy` is the one-command way
    to validate the kernel on a box."""
    import random as _random

    from repro.core.dataflow import make_spec
    from repro.core.macro_partition import MacroPartitionExplorer
    from repro.hardware.power import PowerBudget
    from repro.nn import lenet5

    model = lenet5()
    config = SynthesisConfig.fast(total_power=2.0)
    n = model.num_weighted_layers
    spec = make_spec(
        model, [1] * n, xb_size=128, res_rram=2, res_dac=1,
        params=config.params,
        max_blocks_per_layer=config.max_blocks_per_layer,
    )
    budget = PowerBudget(
        total_power=2.0, ratio_rram=0.3, xb_size=128, res_rram=2,
        num_crossbars=4096,
    )
    explorer = MacroPartitionExplorer(
        spec=spec, budget=budget, res_dac=1, config=config,
        rng=_random.Random(3),
    )
    genes = explorer.initial_population(8)
    genes += [explorer.mutate_share(gene, explorer.rng) for gene in genes]
    batch = explorer.batch_evaluator.evaluate_population(genes)
    for k, gene in enumerate(genes):
        for name, want in explorer.score_fields(gene).items():
            if getattr(batch, name)[k] != want:
                raise PimsynError(
                    f"the numpy kernel failed the batch-eval "
                    f"conformance probe: {name} of gene {k} diverges "
                    f"from the scalar oracle"
                )
    print(
        f"conformance probe passed: {len(genes)}-gene population "
        f"scored bit-identical to the scalar oracle"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PIMSYN: synthesize PIM CNN accelerators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    models = sub.add_parser(
        "models", help="list the built-in model zoo"
    )
    models.add_argument("--json", action="store_true",
                        help="machine-readable output for scripted "
                             "clients and batch manifests")
    peak = sub.add_parser(
        "peak", help="Table IV peak-efficiency comparison"
    )
    peak.add_argument("--tech", default=None,
                      help="device-technology profile for the PIMSYN "
                           "column (default: reram; see `repro tech "
                           "list`)")

    synth = sub.add_parser("synthesize", help="run the synthesis DSE")
    group = synth.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="zoo model name")
    group.add_argument("--json", help="path to a model JSON document")
    synth.add_argument("--power", type=float, default=None,
                       help="total power constraint in watts")
    synth.add_argument("--margin", type=float, default=2.0,
                       help="feasibility-floor multiplier when --power "
                            "is omitted")
    synth.add_argument("--full", action="store_true",
                       help="use the paper's full Table I grid "
                            "(slow; default is the fast preset)")
    synth.add_argument("--tech", default=None,
                       help="device-technology profile to synthesize "
                            "for (default: reram; see `repro tech "
                            "list`)")
    synth.add_argument("--tech-file",
                       help="register a technology profile from this "
                            "JSON document first (the `repro tech "
                            "export` format)")
    synth.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the DSE (0 = one per "
                            "CPU core; same solution as --jobs 1)")
    synth.add_argument("--pareto", action="store_true",
                       help="multi-objective mode: print the Pareto "
                            "front over --objectives instead of a "
                            "single best design")
    synth.add_argument("--objectives", nargs="+", metavar="METRIC",
                       help="pareto objectives (default: throughput "
                            "energy_per_image num_macros); see "
                            "repro.core.config.OBJECTIVE_SENSES")
    synth.add_argument("--front-csv",
                       help="write the Pareto front as CSV here "
                            "(requires --pareto)")
    synth.add_argument("--seed", type=int, default=2024)
    synth.add_argument("--out", help="write the solution JSON here")
    synth.add_argument("--schedule",
                       help="write the per-macro dataflow schedule "
                            "JSON here")
    synth.add_argument("--chip", action="store_true",
                       help="print the per-macro hardware inventory")
    synth.add_argument("--verbose", action="store_true")

    simulate = sub.add_parser(
        "simulate",
        help="replay a synthesized design on a simulator "
             "(windowed engine, or --cycle for the integer-cycle "
             "pipelined machine with cross-validation and fault "
             "injection)",
    )
    group = simulate.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="zoo model name")
    group.add_argument("--json", help="path to a model JSON document")
    simulate.add_argument("--power", type=float, default=None,
                          help="total power constraint in watts")
    simulate.add_argument("--margin", type=float, default=2.0,
                          help="feasibility-floor multiplier when "
                               "--power is omitted")
    simulate.add_argument("--tech", default=None,
                          help="device-technology profile (default: "
                               "reram)")
    simulate.add_argument("--tech-file",
                          help="register a technology profile from "
                               "this JSON document first")
    simulate.add_argument("--cycle", action="store_true",
                          help="use the cycle-level pipelined "
                               "simulator (micro-ops, occupancy "
                               "timelines, NoC link contention) and "
                               "cross-validate against the analytical "
                               "model")
    simulate.add_argument("--fault-rate", type=float, default=0.0,
                          help="per-attempt fault probability for "
                               "crossbar reads and NoC traffic "
                               "(stall-and-retry; requires --cycle)")
    simulate.add_argument("--fault-seed", type=int, default=2024,
                          help="seed of the deterministic fault draws")
    simulate.add_argument("--tol", type=float, default=None,
                          help="cross-validation tolerance (default: "
                               "the stated zoo-calibrated bound); "
                               "exceeding it exits non-zero")
    simulate.add_argument("--trace-out",
                          help="write the execution trace as JSONL "
                               "here (one scheduled IR per line; "
                               "both engines)")
    simulate.add_argument("--report-out",
                          help="write the cycle report JSON here "
                               "(requires --cycle)")
    simulate.add_argument("--seed", type=int, default=2024)
    simulate.add_argument("--verbose", action="store_true")

    sweep = sub.add_parser("sweep", help="power-constraint sweep")
    group = sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="zoo model name")
    group.add_argument("--json", help="path to a model JSON document")
    sweep.add_argument("--powers", type=float, nargs="+", required=True)
    sweep.add_argument("--tech", default=None,
                       help="device-technology profile (default: "
                            "reram)")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes per synthesis (0 = one "
                            "per CPU core)")
    sweep.add_argument("--seed", type=int, default=2024)

    serve = sub.add_parser(
        "serve", help="run the persistent synthesis service"
    )
    serve.add_argument("--store", default=".pimsyn-store",
                       help="result-store directory (shared, "
                            "content-addressed)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8173,
                       help="TCP port (0 = pick a free one)")
    serve.add_argument("--workers", type=int, default=1,
                       help="concurrent jobs (worker threads)")
    serve.add_argument("--jobs", type=int, default=1,
                       help="DSE worker processes per job (0 = one "
                            "per CPU core)")
    serve.add_argument("--tech", default=None,
                       help="default technology for requests that do "
                            "not specify one (default: reram)")
    serve.add_argument("--shards", type=int, default=None,
                       help="shard count when creating a new store "
                            "(an existing store keeps its own)")
    serve.add_argument("--max-queue", type=int, default=None,
                       help="bound the job queue; submissions past "
                            "it get 429 + Retry-After (default: "
                            "unbounded)")
    serve.add_argument("--quota", type=int, default=None,
                       help="max concurrently active jobs per client "
                            "(X-Client-Id header / peer address)")
    serve.add_argument("--reuse-port", action="store_true",
                       help="set SO_REUSEPORT so several serve "
                            "processes can share the port")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")

    batch = sub.add_parser(
        "batch", help="run a (model x power x config) manifest"
    )
    batch.add_argument("--manifest", required=True,
                       help="YAML or JSON manifest path")
    batch.add_argument("--store", default=".pimsyn-store",
                       help="result-store directory (shared with "
                            "`repro serve`)")
    batch.add_argument("--workers", type=int, default=1,
                       help="concurrent jobs (worker threads)")
    batch.add_argument("--jobs", type=int, default=1,
                       help="DSE worker processes per job")
    batch.add_argument("--out", help="write the JSON batch report here")
    batch.add_argument("--verbose", action="store_true")

    store = sub.add_parser(
        "store", help="inspect and maintain a result store"
    )
    store_dir = argparse.ArgumentParser(add_help=False)
    store_dir.add_argument("--store", default=".pimsyn-store",
                           help="an existing result-store directory")
    store_sub = store.add_subparsers(
        dest="store_command", required=True
    )
    store_sub.add_parser(
        "stats", help="store counters + per-model inventory",
        parents=[store_dir],
    )
    gc = store_sub.add_parser(
        "gc", help="compact: drop stale claims, completed-job memos, "
                   "leaked temp files",
        parents=[store_dir],
    )
    gc.add_argument("--stale-after", type=float, default=600.0,
                    help="claims older than this many seconds are "
                         "presumed orphaned")

    tech = sub.add_parser(
        "tech", help="inspect and compare device-technology profiles"
    )
    tech.add_argument("--tech-file",
                      help="register a technology profile from this "
                           "JSON document first")
    tech_sub = tech.add_subparsers(dest="tech_command", required=True)
    tech_sub.add_parser(
        "list", help="registered profiles and their domains"
    )
    show = tech_sub.add_parser(
        "show", help="one profile's constants and domains"
    )
    show.add_argument("name")
    export = tech_sub.add_parser(
        "export", help="write a profile's JSON document (the "
                       "--tech-file / load_technology format)"
    )
    export.add_argument("name")
    export.add_argument("--out", help="output path (default: stdout)")
    compare = tech_sub.add_parser(
        "compare", help="synthesize one model under every technology "
                        "and print the comparison table"
    )
    group = compare.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="zoo model name")
    group.add_argument("--json", help="path to a model JSON document")
    compare.add_argument("--power", type=float, default=None,
                         help="fixed power constraint (default: each "
                              "technology's feasibility floor x "
                              "--margin)")
    compare.add_argument("--margin", type=float, default=2.0)
    compare.add_argument("--techs", nargs="+", metavar="NAME",
                         help="profiles to compare (default: all "
                              "registered)")
    compare.add_argument("--seed", type=int, default=2024)
    compare.add_argument("--out",
                         help="write the comparison JSON here")

    backends = sub.add_parser(
        "backends", help="list the engines of the batched DSE paths"
    )
    backends.add_argument("--check", metavar="NAME",
                          help="exit non-zero unless NAME is usable "
                               "on this interpreter (for numpy: and "
                               "scores == to the scalar oracle)")
    return parser


_COMMANDS = {
    "models": cmd_models,
    "synthesize": cmd_synthesize,
    "simulate": cmd_simulate,
    "peak": cmd_peak,
    "sweep": cmd_sweep,
    "serve": cmd_serve,
    "batch": cmd_batch,
    "store": cmd_store,
    "tech": cmd_tech,
    "backends": cmd_backends,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _install_sigterm_handler()
    try:
        return _COMMANDS[args.command](args)
    except SynthesisInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return 130  # conventional SIGINT exit status
    except KeyboardInterrupt:
        # Ctrl-C outside the DSE engine (e.g. while a scheduler
        # thread owns the synthesis): exit quietly, no traceback.
        print("interrupted", file=sys.stderr)
        return 130
    except PimsynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
