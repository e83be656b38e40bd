"""Tests for the command-line interface."""

import json

import pytest

from repro import cli
from repro.cli import main
from repro.nn import lenet5
from repro.nn.onnx_io import save_model


class TestModelsCommand:
    def test_lists_zoo(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "vgg16" in out and "lenet5" in out
        assert "GMACs" in out

    def test_json_flag_is_machine_readable(self, capsys):
        assert main(["models", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        entries = {e["name"]: e for e in payload["models"]}
        assert "lenet5" in entries and "vgg16" in entries
        lenet = entries["lenet5"]
        assert lenet["input_shape"] == [1, 32, 32]
        assert lenet["weighted_layers"] == 5
        assert lenet["gmacs"] > 0


class TestPeakCommand:
    def test_prints_table4(self, capsys):
        assert main(["peak"]) == 0
        out = capsys.readouterr().out
        assert "pimsyn" in out and "isaac" in out
        assert "Table IV" in out


class TestSynthesizeCommand:
    def test_zoo_model_with_power(self, capsys):
        assert main([
            "synthesize", "--model", "lenet5", "--power", "2.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "TOPS/W" in out

    def test_auto_power_from_floor(self, capsys):
        assert main(["synthesize", "--model", "lenet5"]) == 0
        out = capsys.readouterr().out
        assert "feasibility floor" in out

    def test_json_model_input(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        save_model(lenet5(), path)
        assert main([
            "synthesize", "--json", str(path), "--power", "2.0",
        ]) == 0

    def test_writes_solution_and_schedule(self, tmp_path, capsys):
        out_path = tmp_path / "solution.json"
        sched_path = tmp_path / "schedule.json"
        assert main([
            "synthesize", "--model", "lenet5", "--power", "2.0",
            "--out", str(out_path), "--schedule", str(sched_path),
            "--chip",
        ]) == 0
        solution = json.loads(out_path.read_text())
        assert solution["model"] == "lenet5"
        schedule = json.loads(sched_path.read_text())
        assert schedule["macros"]
        out = capsys.readouterr().out
        assert "macro 0" in out  # --chip inventory

    def test_infeasible_power_is_an_error(self, capsys):
        assert main([
            "synthesize", "--model", "lenet5", "--power", "0.001",
        ]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_model_is_an_error(self, capsys):
        assert main([
            "synthesize", "--model", "nope", "--power", "2.0",
        ]) == 1

    def test_malformed_json_model_is_one_error_line(
        self, tmp_path, capsys
    ):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "name": "bad", "input_shape": [3, 8, 8],
            "nodes": [{"op": "Conv", "name": "c1", "inputs": ["input"],
                       "attrs": {"kernel": 3}}],
        }))
        assert main([
            "synthesize", "--json", str(path), "--power", "2.0",
        ]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: node 'c1': missing attribute 'out_channels'\n"
        )


class TestSweepCommand:
    def test_sweep_table(self, capsys):
        assert main([
            "sweep", "--model", "lenet5", "--powers", "0.01", "2.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "power sweep" in out
        assert "no" in out and "yes" in out


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_model_and_json_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["synthesize", "--model", "a", "--json", "b"])

    @pytest.mark.parametrize("command", [
        ["synthesize", "--model", "lenet5", "--power", "2"],
        ["sweep", "--model", "lenet5", "--powers", "2"],
    ])
    @pytest.mark.parametrize("path", ["eval", "bounds"])
    def test_removed_scalar_flags_are_usage_errors(
        self, command, path, capsys
    ):
        """Numpy alone picks the batched or scalar DSE paths; the
        removed switches fail with argparse's usage error."""
        flag = f"--scalar-{path}"
        with pytest.raises(SystemExit) as exc:
            main(command + [flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        (["synthesize", "--model", "lenet5", "--power", "2"],
         ["--backend", "python"]),
        (["sweep", "--model", "lenet5", "--powers", "2"],
         ["--backend", "python"]),
        (["serve", "--port", "0"], ["--server", "threaded"]),
        (["simulate", "--model", "lenet5", "--power", "2", "--cycle"],
         ["--engine", "python"]),
    ], ids=("synthesize", "sweep", "serve-server", "simulate-engine"))
    def test_backend_flag_is_a_usage_error(
        self, command, flag, capsys, monkeypatch
    ):
        """There is no engine or front end to pick: what imports picks
        the array engine and the event wheel, and serve has one HTTP
        front end, so ``--backend``, ``--engine`` and ``--server`` fail
        with argparse's usage error. The command itself is stubbed, so
        a flag that parses fails the test instead of running a
        synthesis or a server that never returns."""
        monkeypatch.setitem(cli._COMMANDS, command[0], lambda _args: 0)
        with pytest.raises(SystemExit) as exc:
            main(command + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in \
            capsys.readouterr().err

    def test_gc_keep_memos_flag_is_a_usage_error(self, tmp_path, capsys):
        """Only an interrupted job writes a memo, and gc drops it once
        the key's result exists; there is nothing left to keep."""
        with pytest.raises(SystemExit) as exc:
            main(["store", "gc", "--store", str(tmp_path / "store"),
                  "--keep-memos"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --keep-memos" in \
            capsys.readouterr().err

    def test_store_migrate_is_a_usage_error(self, tmp_path, capsys):
        """Opening a flat (schema-1) store moves it into its shards, so
        there is no migrate step left to run."""
        with pytest.raises(SystemExit) as exc:
            main(["store", "migrate", "--store", str(tmp_path / "store")])
        assert exc.value.code == 2
        assert "invalid choice: 'migrate'" in capsys.readouterr().err


class TestTechCommand:
    def test_list(self, capsys):
        assert main(["tech", "list"]) == 0
        out = capsys.readouterr().out
        assert "reram" in out and "sram-pim" in out and "reram-lp" in out

    def test_show(self, capsys):
        assert main(["tech", "show", "sram-pim"]) == 0
        out = capsys.readouterr().out
        assert "sram" in out
        assert "ResRram domain" in out and "(1,)" in out

    def test_show_unknown_fails(self, capsys):
        assert main(["tech", "show", "finfet-9000"]) == 1
        assert "unknown technology" in capsys.readouterr().err

    def test_export_then_synthesize_with_tech_file(self, tmp_path,
                                                   capsys):
        """export -> edit name -> --tech-file round trip."""
        out_path = tmp_path / "custom.json"
        assert main([
            "tech", "export", "reram-lp", "--out", str(out_path),
        ]) == 0
        capsys.readouterr()
        document = json.loads(out_path.read_text())
        document["name"] = "my-device"
        out_path.write_text(json.dumps(document))
        try:
            assert main([
                "synthesize", "--model", "lenet5", "--power", "4.0",
                "--tech-file", str(out_path),
            ]) == 0
            assert "TOPS/W" in capsys.readouterr().out
        finally:
            from repro.hardware.tech import unregister_technology

            unregister_technology("my-device")

    def test_tech_file_cannot_shadow_a_builtin(self, tmp_path, capsys):
        """An edited profile that kept a built-in's name must be
        rejected, not silently replace the shipped device."""
        out_path = tmp_path / "evil.json"
        assert main([
            "tech", "export", "sram-pim", "--out", str(out_path),
        ]) == 0
        capsys.readouterr()
        document = json.loads(out_path.read_text())
        document["device"]["crossbar_latency"] = 1e-12
        out_path.write_text(json.dumps(document))
        assert main([
            "synthesize", "--model", "lenet5", "--power", "2",
            "--tech-file", str(out_path),
        ]) == 1
        assert "cannot be replaced" in capsys.readouterr().err

    def test_malformed_tech_file_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        assert main(["tech", "export", "reram", "--out", str(path)]) == 0
        capsys.readouterr()
        document = json.loads(path.read_text())
        document["device"]["crossbar_latency"] = None
        path.write_text(json.dumps(document))
        assert main(["tech", "--tech-file", str(path), "list"]) == 1
        assert capsys.readouterr().err == (
            "error: technology 'reram': crossbar_latency must be a "
            "finite number, got None\n"
        )

    def test_export_stdout_is_loadable(self, tmp_path, capsys):
        assert main(["tech", "export", "sram-pim"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "sram-pim"
        assert payload["domains"]["res_rram_choices"] == [1]


class TestSynthesizeTech:
    def test_tech_flag_end_to_end(self, capsys):
        """--tech sram-pim: auto power floor + DSE + solution print."""
        assert main([
            "synthesize", "--model", "lenet5", "--tech", "sram-pim",
        ]) == 0
        out = capsys.readouterr().out
        assert "feasibility floor" in out
        assert "ResRram=1" in out  # SRAM has no multi-bit cells

    def test_unknown_tech_fails_cleanly(self, capsys):
        assert main([
            "synthesize", "--model", "lenet5", "--power", "2",
            "--tech", "finfet-9000",
        ]) == 1
        assert "unknown technology" in capsys.readouterr().err

    def test_sweep_with_tech(self, capsys):
        assert main([
            "sweep", "--model", "lenet5", "--powers", "2", "4",
            "--tech", "reram-lp",
        ]) == 0
        assert "power sweep" in capsys.readouterr().out

    def test_peak_with_tech(self, capsys):
        assert main(["peak", "--tech", "sram-pim"]) == 0
        assert "pimsyn" in capsys.readouterr().out

    def test_tech_compare(self, capsys):
        assert main([
            "tech", "compare", "--model", "lenet5",
            "--techs", "reram", "sram-pim",
        ]) == 0
        out = capsys.readouterr().out
        assert "technology comparison" in out
        assert "sram-pim" in out


class TestSimulateCommand:
    def test_windowed_smoke(self, capsys):
        assert main([
            "simulate", "--model", "lenet5", "--power", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "windowed simulation" in out
        assert "img/s" in out

    def test_cycle_smoke_cross_validates(self, capsys):
        assert main([
            "simulate", "--model", "lenet5", "--power", "2", "--cycle",
        ]) == 0
        out = capsys.readouterr().out
        assert "cycle simulation" in out
        assert "cross-validation vs analytical model" in out
        assert "agreement         OK" in out

    def test_cycle_trace_and_report_artifacts(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        report_path = tmp_path / "report.json"
        assert main([
            "simulate", "--model", "lenet5", "--power", "2", "--cycle",
            "--trace-out", str(trace_path),
            "--report-out", str(report_path),
        ]) == 0
        capsys.readouterr()
        from repro.sim.trace import SimTrace

        trace = SimTrace.from_jsonl(trace_path.read_text())
        assert len(trace) > 0
        payload = json.loads(report_path.read_text())
        assert payload["engine"] == "cycle"
        assert payload["steady"]["throughput"] > 0

    def test_windowed_trace_artifact(self, tmp_path, capsys):
        trace_path = tmp_path / "windowed.jsonl"
        assert main([
            "simulate", "--model", "lenet5", "--power", "2",
            "--trace-out", str(trace_path),
        ]) == 0
        capsys.readouterr()
        from repro.sim.trace import SimTrace

        assert len(SimTrace.from_jsonl(trace_path.read_text())) > 0

    def test_tolerance_exceeded_fails_actionably(self, capsys):
        # alexnet's DAG omits the pooling/ReLU vector ops the analytical
        # ALU term carries, so its deviation is small but nonzero — a
        # vanishing tolerance must trip the failure path.
        assert main([
            "simulate", "--model", "alexnet", "--cycle",
            "--tol", "1e-12",
        ]) == 1
        err = capsys.readouterr().err
        assert "deviates from the analytical model" in err
        assert "--tol" in err

    def test_fault_rate_requires_cycle(self, capsys):
        assert main([
            "simulate", "--model", "lenet5", "--power", "2",
            "--fault-rate", "0.01",
        ]) == 2
        assert "--fault-rate requires --cycle" in capsys.readouterr().err

    def test_fault_injection_skips_validation(self, capsys):
        assert main([
            "simulate", "--model", "lenet5", "--power", "2", "--cycle",
            "--fault-rate", "0.01", "--fault-seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "cross-validation skipped" in out
        assert "faults" in out


class TestUnreadableInputFiles:
    """A model, technology or manifest path that cannot be read as
    UTF-8 text ends in one ``error:`` line naming the path, and exit
    status 1."""

    @staticmethod
    def _paths(tmp_path):
        directory = tmp_path / "a-directory"
        directory.mkdir()
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe\x00")
        return {
            "missing": (
                tmp_path / "missing.json", "No such file or directory"
            ),
            "directory": (directory, "Is a directory"),
            "not-utf8": (binary, "not UTF-8 text"),
        }

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    @pytest.mark.parametrize("argv,document", [
        (["synthesize", "--json", "{path}", "--power", "2"], "model"),
        (["synthesize", "--model", "lenet5", "--power", "2",
          "--tech-file", "{path}"], "technology"),
        (["tech", "--tech-file", "{path}", "list"], "technology"),
    ], ids=["synthesize-json", "synthesize-tech-file", "tech-tech-file"])
    def test_one_error_line(self, tmp_path, capsys, kind, argv, document):
        path, reason = self._paths(tmp_path)[kind]
        argv = [arg.format(path=path) for arg in argv]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read {document} document {path}: {reason}\n"
        )

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_batch_manifest(self, tmp_path, capsys, kind):
        path, reason = self._paths(tmp_path)[kind]
        assert main([
            "batch", "--manifest", str(path),
            "--store", str(tmp_path / "store"),
        ]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read manifest {path}: {reason}\n"
        )


class TestUnwritableOutputPaths:
    """An output path whose directory is missing, or that names a
    directory, ends in one ``error:`` line naming the flag and the
    path, and exit status 1, before any synthesis runs."""

    SYNTH = ["synthesize", "--model", "lenet5", "--power", "2"]
    SIMULATE = ["simulate", "--model", "lenet5", "--power", "2"]

    @staticmethod
    def _path(tmp_path, kind):
        if kind == "missing-directory":
            return tmp_path / "nodir" / "out.json", "No such file or directory"
        directory = tmp_path / "a-directory"
        directory.mkdir()
        return directory, "Is a directory"

    @pytest.mark.parametrize("kind", ["missing-directory", "directory"])
    @pytest.mark.parametrize("argv, flag", [
        (SYNTH + ["--out", "{path}"], "--out"),
        (SYNTH + ["--pareto", "--front-csv", "{path}"], "--front-csv"),
        (SYNTH + ["--schedule", "{path}"], "--schedule"),
        (SIMULATE + ["--trace-out", "{path}"], "--trace-out"),
        (SIMULATE + ["--cycle", "--report-out", "{path}"], "--report-out"),
        (["batch", "--manifest", "{manifest}", "--store", "{store}",
          "--out", "{path}"], "--out"),
        (["tech", "compare", "--model", "lenet5", "--out", "{path}"],
         "--out"),
        (["tech", "export", "reram", "--out", "{path}"], "--out"),
    ], ids=[
        "synthesize-out", "synthesize-front-csv", "synthesize-schedule",
        "simulate-trace-out", "simulate-report-out", "batch-out",
        "tech-compare-out", "tech-export-out",
    ])
    def test_one_error_line_and_no_synthesis(
        self, tmp_path, capsys, monkeypatch, kind, argv, flag
    ):
        from repro.core import synthesizer

        syntheses = []

        def refuse(self):
            syntheses.append(self)
            raise AssertionError("a synthesis ran")

        monkeypatch.setattr(synthesizer.Pimsyn, "synthesize", refuse)
        monkeypatch.setattr(
            synthesizer.Pimsyn, "synthesize_pareto", refuse
        )
        path, reason = self._path(tmp_path, kind)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"models": ["lenet5"], "powers": [2.0]}
        ))
        store = tmp_path / "store"
        argv = [
            arg.format(path=path, manifest=manifest, store=store)
            for arg in argv
        ]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {flag} {path}: {reason}\n"
        )
        assert syntheses == []
        assert not store.exists()


class TestStorePaths:
    """``store stats`` and ``store gc`` open only an existing store
    directory, so a mistyped path creates nothing; a regular file given
    as ``--store`` is one ``error:`` line and exit status 1 on every
    command that opens a store."""

    @pytest.mark.parametrize("command", ["stats", "gc"])
    def test_maintenance_on_a_missing_path(self, tmp_path, capsys, command):
        path = tmp_path / "mistyped" / "store"
        assert main(["store", command, "--store", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: --store {path} is not an existing directory\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["serve", "--port", "0"], "store {path} is not a directory"),
        (["batch", "--manifest", "{manifest}"],
         "store {path} is not a directory"),
        (["store", "stats"], "--store {path} is not an existing directory"),
    ], ids=["serve", "batch", "store-stats"])
    def test_a_file_as_the_store(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        import repro.serve

        def refuse(*_args, **_kwargs):
            raise AssertionError("a server started")

        # A store that opened would start a server that never returns.
        monkeypatch.setattr(repro.serve, "make_server", refuse)
        path = tmp_path / "a-file"
        path.write_text("not a store")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"models": ["lenet5"], "powers": [2.0]}
        ))
        argv = [arg.format(manifest=manifest) for arg in argv]
        assert main(argv + ["--store", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: " + message.format(path=path) + "\n"
        )
        assert path.read_text() == "not a store"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a-file", "manifest.json",
        ]

    @pytest.mark.parametrize("command", ["stats", "gc"])
    def test_maintenance_on_a_directory_without_a_store(
        self, tmp_path, capsys, command
    ):
        """An existing directory with no manifest, no shards and no
        flat ``results/`` or ``memo/`` holds no store: refused, and
        nothing is written into it."""
        (tmp_path / "notes.txt").write_text("not a store")
        assert main(["store", command, "--store", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: --store {tmp_path} holds no result store (no "
            "store.json, shards/, results/ or memo/)\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]

    def test_a_flat_store_opens_and_moves(self, tmp_path, capsys):
        """A pre-sharding store, flat ``results/`` and all, still opens
        and is moved into its shards."""
        from repro.serve import ResultStore

        key = "ab" * 32
        doc = json.dumps({"schema": 1, "solution": {"model": "lenet5"}})
        (tmp_path / "results").mkdir()
        (tmp_path / "results" / f"{key}.json").write_text(doc)
        assert main(["store", "stats", "--store", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["results"] == 1
        assert not (tmp_path / "results").exists()
        assert ResultStore(tmp_path).get_bytes(key) == doc.encode()
