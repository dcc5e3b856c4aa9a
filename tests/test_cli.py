"""CLI tests: every subcommand runs and prints what it promises."""

import pytest

from repro.cli import build_parser, main


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "1.0.0" in capsys.readouterr().out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_datasets(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "soc-livejournal1" in out and "mesh-like" in out


def test_run_with_counters(capsys):
    code = main(
        [
            "run",
            "--framework", "gunrock",
            "--app", "bfs",
            "--dataset", "hollywood-2009",
            "--gpus", "2",
            "--counters",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "gunrock bfs on hollywood-2009" in out
    assert "edges_processed" in out


def test_run_rejects_unknown_app():
    with pytest.raises(SystemExit):
        main(["run", "--framework", "gunrock", "--app", "sssp",
              "--dataset", "road-usa"])


def test_fig1(capsys):
    assert main(["fig1"]) == 0
    out = capsys.readouterr().out
    assert "concurrent push" in out
    assert "Broker queue" in out


def test_fig2(capsys):
    assert main(["fig2"]) == 0
    out = capsys.readouterr().out
    assert "NVLink" in out and "PCIe3" in out


def test_fig4(capsys):
    assert main(["fig4"]) == 0
    out = capsys.readouterr().out
    assert "optimal batch size: 2^20" in out


def test_topology_daisy(capsys):
    assert main(["topology", "daisy"]) == 0
    out = capsys.readouterr().out
    assert "NV2" in out and "bisection bandwidth" in out


def test_topology_summit_node(capsys):
    assert main(["topology", "summit-node"]) == 0
    assert "GPU5" in capsys.readouterr().out


def test_table2_quick(capsys):
    assert main(["table2", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Application: bfs on gunrock" in out
    assert "(x" in out  # speedups present


def test_table3_quick(capsys):
    assert main(["table3", "--quick"]) == 0
    assert "->" in capsys.readouterr().out


def test_table2_quick_pooled_matches_serial(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["table2", "--quick", "--jobs", "2"]) == 0
    pooled = capsys.readouterr().out
    assert main(["table2", "--quick"]) == 0
    assert capsys.readouterr().out == pooled


def test_cache_subcommands(capsys, tmp_path, monkeypatch):
    from repro.harness import clear_memory_cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_memory_cache()  # force the next run to hit the disk layer
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "entries" in out and str(tmp_path / "cache") in out
    assert main(["run", "--framework", "gunrock", "--app", "bfs",
                 "--dataset", "hollywood-2009"]) == 0
    capsys.readouterr()
    assert main(["cache", "verify"]) == 0
    assert "removed 0 corrupt" in capsys.readouterr().out
    assert main(["cache", "clear"]) == 0
    assert "removed 1 cached run" in capsys.readouterr().out


def test_parser_help_lists_subcommands():
    parser = build_parser()
    help_text = parser.format_help()
    for command in ("datasets", "run", "table2", "table5", "fig1",
                    "topology", "cache", "chaos"):
        assert command in help_text


@pytest.mark.parametrize("verb", ["bench", "engine-bench", "pdes-bench"])
def test_removed_bench_verbs_are_usage_errors(verb, capsys):
    # Host-speed measurement lives in benchmarks/perf; the old bench
    # verbs are gone, so argparse rejects them as unknown choices.
    with pytest.raises(SystemExit) as exc:
        main([verb])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["recover", "pdes-chaos"])
def test_removed_fault_verbs_are_usage_errors(verb, capsys):
    # Crash and worker-kill cells run in `repro chaos`; the old verbs
    # are gone, so argparse rejects them as unknown choices.
    with pytest.raises(SystemExit) as exc:
        main([verb, "--quick"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["serve"], ["submit"], ["status"], ["watch", "j00001"],
    ["report", "--service", "stats.json"],
    ["serve-validate", "--log", "stats.json"],
    ["tune", "--space", "space.json"], ["tune", "--searcher", "grid"],
    ["tune", "--budget", "8"], ["tune", "--objective", "makespan"],
    ["tune", "--journal", "j.ndjson"], ["tune", "--seed", "3"],
    ["tune", "--preset", "fig4"], ["report", "--utilization"],
], ids=" ".join)
def test_removed_serve_surface_is_a_usage_error(argv, capsys):
    # The HTTP serving layer is gone; only its queueing self-model
    # (`serve-validate`) remains, `tune` is only the Fig-4 sweep, and
    # `report --utilization` was `repro profile`'s default cell, so
    # argparse rejects the old verbs and flags.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err or "unrecognized arguments" in err


def test_run_partitions_flags_parse():
    args = build_parser().parse_args(
        ["run", "--framework", "atos-standard-persistent", "--app",
         "bfs", "--dataset", "hollywood-2009", "--partitions", "2",
         "--pdes-driver", "local"]
    )
    assert args.partitions == 2
    assert args.pdes_driver == "local"


def test_run_partitions_verify_digest(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    from repro.harness import clear_memory_cache

    clear_memory_cache()
    argv = ["run", "--framework", "atos-standard-persistent", "--app",
            "bfs", "--dataset", "hollywood-2009", "--gpus", "4",
            "--partitions", "2", "--pdes-driver", "local",
            "--verify-digest"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert first.startswith("partitioned (local, 2 partitions): ")
    assert "digest matches serial" in first
    # The partitioned cell goes through the run cache: with an empty
    # memo both cells are served from disk, window line included.
    from repro.harness import runner
    from repro.runtime import partitioned

    def no_compute(*args, **kwargs):
        raise AssertionError("cell was recomputed, not served from cache")

    clear_memory_cache()
    monkeypatch.setattr(runner, "_compute", no_compute)
    monkeypatch.setattr(partitioned, "run_partitioned", no_compute)
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    clear_memory_cache()


def test_run_partitions_keeps_driver_base_config(capsys, tmp_path,
                                                monkeypatch):
    # groute is an atos variant with its own base config (CPU control
    # path, segment rounds, no aggregator); the partitioned cell must
    # simulate that config, not the default one.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    from repro.harness import clear_memory_cache

    clear_memory_cache()
    assert main(["run", "--framework", "groute", "--app", "bfs",
                 "--dataset", "hollywood-2009", "--gpus", "2",
                 "--partitions", "2", "--pdes-driver", "local",
                 "--verify-digest"]) == 0
    assert "digest matches serial" in capsys.readouterr().out
    clear_memory_cache()


def test_run_partitions_rejects_baseline_framework(capsys, tmp_path,
                                                   monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    code = main(["run", "--framework", "gunrock", "--app", "bfs",
                 "--dataset", "hollywood-2009", "--gpus", "2",
                 "--partitions", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro run: error: ")
    assert "atos framework" in captured.err
    assert captured.err.count("\n") == 1


def test_chaos_quick(capsys):
    code = main(["chaos", "--quick", "--drop-rates", "0,0.1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Chaos grid" in out
    assert "pass" in out and "FAIL" not in out
    # Every fault kind ran: drops, one crash per app, two BFS kills.
    for fault in ("drop0.1", "pe1@15", "pe1@80", "P2 kill p1@w0",
                  "P2 kill p1@w2"):
        assert fault in out


def test_chaos_parser_flags():
    args = build_parser().parse_args(
        ["chaos", "--quick", "--seed", "7", "--drop-rates", "0,0.2",
         "--kill-windows", "1,3", "--gpus", "2", "--verify-inert"]
    )
    assert args.seed == 7
    assert args.verify_inert
    assert args.drop_rates == "0,0.2"
    assert args.kill_windows == "1,3"
    assert args.gpus == 2


def test_recover_quick(capsys):
    # The crash cells the removed `recover` verb ran: `chaos --quick`
    # with drops and kills left out.
    code = main(["chaos", "--quick", "--drop-rates", "",
                 "--kill-windows", ""])
    out = capsys.readouterr().out
    assert code == 0
    assert "Chaos grid" in out
    assert "pass" in out and "FAIL" not in out
    assert "pe1@15" in out and "pe1@80" in out
    assert "drop0" not in out and "P2 kill" not in out


def test_recover_parser_flags():
    args = build_parser().parse_args(
        ["chaos", "--quick", "--seed", "7", "--crash-times", "20,45",
         "--crash-pes", "0,2", "--gpus", "2", "--jobs", "2",
         "--verify-inert"]
    )
    assert args.seed == 7
    assert args.verify_inert
    assert args.crash_times == "20,45"
    assert args.crash_pes == "0,2"
    assert args.gpus == 2
    assert args.jobs == 2


@pytest.mark.parametrize("argv", [
    ["--quick", "--gpus", "1"],          # crash rank 1 of 1 GPU
    ["--quick", "--gpus", "0"],
    ["--drop-rates", "1.5"],
    ["--drop-rates", "0,abc"],
    ["--crash-pes", "4"],
    ["--crash-pes", "-1"],
    ["--crash-times", "-5"],
    ["--kill-windows", "-1"],
    ["--kill-windows", "1.5"],
    ["--gpus", "2"],                     # the full grid's P=4 kill cells
], ids=" ".join)
def test_chaos_bad_input_is_a_usage_error(argv, capsys):
    assert main(["chaos", "--verify-inert", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""            # rejected before any cell ran
    assert captured.err.startswith("repro chaos: error: ")
    assert captured.err.count("\n") == 1


def test_seed_flag_on_grid_and_bench_parsers():
    parser = build_parser()
    assert parser.parse_args(["table2", "--seed", "3"]).seed == 3
    assert parser.parse_args(["table5", "--seed", "5"]).seed == 5
    assert parser.parse_args(["report", "--quick"]).seed == 0


def test_run_accepts_seed(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    from repro.harness import clear_memory_cache

    clear_memory_cache()
    code = main(
        [
            "run",
            "--framework", "gunrock",
            "--app", "bfs",
            "--dataset", "hollywood-2009",
            "--gpus", "2",
            "--seed", "1",
        ]
    )
    assert code == 0
    assert "gunrock bfs on hollywood-2009" in capsys.readouterr().out
    clear_memory_cache()


def test_profile_quick(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    trace = tmp_path / "trace.json"
    code = main(
        [
            "profile",
            "--dataset", "hollywood-2009",
            "--gpus", "4",
            "--export", str(trace),
            "--top", "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "profile: atos-standard-persistent / bfs" in out
    assert "load imbalance" in out
    assert "critical path" in out
    assert "wrote" in out and trace.exists()

    import json

    from repro.telemetry import validate_trace_events

    assert validate_trace_events(json.loads(trace.read_text())) > 0


def test_profile_rejects_bsp_framework(monkeypatch):
    from repro.errors import ConfigurationError

    monkeypatch.setenv("REPRO_CACHE", "0")
    with pytest.raises(ConfigurationError, match="does not support"):
        main(["profile", "--framework", "gunrock",
              "--dataset", "hollywood-2009"])


def test_profile_parser_flags():
    parser = build_parser()
    args = parser.parse_args(
        ["profile", "--framework", "atos-priority-discrete",
         "--app", "pagerank", "--dataset", "road-usa",
         "--machine", "daisy", "--gpus", "2",
         "--export", "out.json", "--top", "5", "--seed", "3"]
    )
    assert args.framework == "atos-priority-discrete"
    assert args.app == "pagerank" and args.machine == "daisy"
    assert args.export == "out.json" and args.top == 5
    assert args.seed == 3
    assert "profile" in parser.format_help()


def test_tune_parser_flags():
    parser = build_parser()
    args = parser.parse_args(
        ["tune", "--quick", "--jobs", "2", "--timeout", "60",
         "--out", "B.json", "--validate", "V.json"]
    )
    assert args.quick and args.jobs == 2 and args.timeout == 60
    assert args.out == "B.json" and args.validate == "V.json"
    # The acceptance command's default artifact name.
    assert parser.parse_args(["tune"]).out == "BENCH_tune.json"
    assert "tune" in parser.format_help()


def test_report_renders_cache_line(capsys, tmp_path, monkeypatch):
    from repro.harness import clear_memory_cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_memory_cache()
    assert main(["report", "--quick"]) == 0
    cold = capsys.readouterr().out
    assert "winner agreement" in cold
    assert "Table II" in cold and "Table IV" in cold
    assert "run cache:" in cold
    # Tables themselves stay cache-temperature-independent: only the
    # trailing cache line may differ between cold and warm runs.
    clear_memory_cache()
    assert main(["report", "--quick"]) == 0
    warm = capsys.readouterr().out
    strip = lambda s: [l for l in s.splitlines()
                       if not l.startswith("run cache:")]  # noqa: E731
    assert strip(warm) == strip(cold)
    assert "hit rate" in warm


def test_tune_validate_committed_document(capsys):
    # The committed BENCH_tune.json must satisfy the current schema.
    from pathlib import Path

    doc = Path(__file__).resolve().parents[1] / "BENCH_tune.json"
    assert main(["tune", "--validate", str(doc)]) == 0
    assert "valid (70 trials)" in capsys.readouterr().out
