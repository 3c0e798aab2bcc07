"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "--out", "/tmp/x"])
        assert args.days == 120
        assert args.scale == 0.5

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_parallel_flags(self):
        args = build_parser().parse_args(
            ["query", "--data", "/tmp/x", "--workers", "4",
             "--executor", "process"]
        )
        assert args.workers == 4
        assert args.executor == "process"
        args = build_parser().parse_args(["demo", "--executor", "serial"])
        assert args.executor == "serial"
        args = build_parser().parse_args(["demo", "--executor", "cluster"])
        assert args.executor == "cluster"
        # Unset flags stay None so $REPRO_EXECUTOR / $REPRO_WORKERS can
        # supply the defaults at engine-resolution time.
        args = build_parser().parse_args(["demo"])
        assert args.workers is None
        assert args.executor is None

    def test_parallel_flag_env_defaults(self, monkeypatch):
        from repro.mapreduce.engine import default_engine

        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        args = build_parser().parse_args(["demo"])
        engine = default_engine(args.workers, args.executor)
        assert (engine.executor, engine.n_workers) == ("process", 3)
        # Explicit flags beat the environment.
        args = build_parser().parse_args(["demo", "--executor", "serial"])
        assert default_engine(args.workers, args.executor).executor == "serial"

    def test_bad_executor_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["demo", "--executor", "gpu"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'gpu'" in err
        assert "'serial', 'process', 'cluster'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["index", "--data", "/tmp/x", "--out", "/tmp/y"],
            ["update", "--data", "/tmp/x", "--index", "/tmp/y"],
            ["query", "--data", "/tmp/x"],
            ["demo"],
        ],
        ids=["index", "update", "query", "demo"],
    )
    def test_thread_executor_rejected_by_every_parallel_verb(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv + ["--executor", "thread"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'thread'" in err
        assert "'serial', 'process', 'cluster'" in err

    def test_worker_verb(self):
        args = build_parser().parse_args(
            ["worker", "--connect", "10.0.0.5:7077", "--id", "host3",
             "--retry", "120", "--quiet"]
        )
        assert args.connect == "10.0.0.5:7077"
        assert args.id == "host3"
        assert args.retry == 120.0
        assert args.quiet is True
        args = build_parser().parse_args(["worker", "--connect", "c:7077"])
        assert args.id is None and args.retry == 60.0 and not args.quiet
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])  # --connect is required

    def test_worker_rejects_bad_address_at_startup(self):
        from repro.utils.errors import MapReduceError

        with pytest.raises(MapReduceError, match="--connect"):
            main(["worker", "--connect", "not-an-address"])

    def test_worker_gives_up_when_no_coordinator(self):
        # An unused port and a zero retry window: one failed dial, exit 1.
        assert main(["worker", "--connect", "127.0.0.1:1", "--retry", "0",
                     "--quiet"]) == 1

    def test_worker_gives_up_on_a_silent_non_coordinator(self):
        """A peer that accepts TCP but never completes the handshake (wrong
        service on the port) must exhaust the retry window, not hang."""
        import socket
        import time

        listener = socket.create_server(("127.0.0.1", 0))
        try:
            host, port = listener.getsockname()[:2]
            start = time.monotonic()
            code = main(["worker", "--connect", f"{host}:{port}",
                         "--retry", "1", "--quiet"])
            elapsed = time.monotonic() - start
            assert code == 1
            assert elapsed < 30  # bounded by the window, not the handshake
        finally:
            listener.close()

    def test_index_verb_requires_data_and_out(self):
        args = build_parser().parse_args(
            ["index", "--data", "/tmp/cat", "--out", "/tmp/idx"]
        )
        assert args.data == "/tmp/cat"
        assert args.out == "/tmp/idx"
        assert args.force is False
        with pytest.raises(SystemExit):
            build_parser().parse_args(["index", "--data", "/tmp/cat"])

    def test_update_verb_flags(self):
        args = build_parser().parse_args(
            ["update", "--data", "/tmp/cat", "--index", "/tmp/idx",
             "--dry-run", "--temporal", "day", "--workers", "2",
             "--executor", "process"]
        )
        assert args.data == "/tmp/cat"
        assert args.index == "/tmp/idx"
        assert args.dry_run is True
        assert args.temporal == "day"
        assert (args.workers, args.executor) == (2, "process")
        with pytest.raises(SystemExit):  # both sources are required
            build_parser().parse_args(["update", "--data", "/tmp/cat"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["update", "--index", "/tmp/idx"])

    def test_query_takes_catalog_or_index_not_both(self):
        args = build_parser().parse_args(["query", "--index", "/tmp/idx"])
        assert args.index == "/tmp/idx"
        with pytest.raises(SystemExit):  # neither source given
            build_parser().parse_args(["query"])
        with pytest.raises(SystemExit):  # both sources given
            build_parser().parse_args(
                ["query", "--data", "/tmp/cat", "--index", "/tmp/idx"]
            )

    def test_live_observability_flags(self):
        args = build_parser().parse_args(
            ["--metrics-port", "9100", "--profile", "/tmp/p.collapsed",
             "demo"]
        )
        assert args.metrics_port == 9100
        assert args.profile == "/tmp/p.collapsed"
        # Unset flags stay falsy so $REPRO_METRICS_PORT / $REPRO_PROFILE
        # can supply them at lifecycle time.
        args = build_parser().parse_args(["demo"])
        assert args.metrics_port is None
        assert args.profile == ""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--metrics-port", "not-a-port", "demo"])

    def test_worker_heartbeat_interval_flag(self):
        args = build_parser().parse_args(
            ["worker", "--connect", "c:7077", "--heartbeat-interval", "0.25"]
        )
        assert args.heartbeat_interval == 0.25
        # Default None: the coordinator's welcome sets the cadence.
        args = build_parser().parse_args(["worker", "--connect", "c:7077"])
        assert args.heartbeat_interval is None

    def test_worker_rejects_nonpositive_heartbeat_interval(self):
        from repro.utils.errors import MapReduceError

        with pytest.raises(MapReduceError, match="heartbeat_interval"):
            main(["worker", "--connect", "127.0.0.1:1",
                  "--heartbeat-interval", "0"])

    def test_stats_json_flag(self):
        args = build_parser().parse_args(["stats", "--json", "/tmp/idx"])
        assert args.json is True
        args = build_parser().parse_args(["stats", "/tmp/idx"])
        assert args.json is False

    def test_top_verb(self):
        args = build_parser().parse_args(["top", "--port", "9100",
                                          "--interval", "0.5", "--frames", "3"])
        assert args.port == 9100
        assert args.interval == 0.5
        assert args.frames == 3
        args = build_parser().parse_args(["top", "--url", "http://h:9100"])
        assert args.url == "http://h:9100"
        assert args.port is None and args.frames is None

    def test_top_needs_a_target(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_METRICS_PORT", raising=False)
        assert main(["top"]) == 2
        assert "REPRO_METRICS_PORT" in capsys.readouterr().err

    def test_top_exits_2_when_exporter_never_answers(self, monkeypatch):
        # An unused port: misses with zero frames drawn exhaust, exit 2.
        monkeypatch.setattr("repro.obs.top._MISS_LIMIT", 2)
        assert main(["top", "--port", "1", "--interval", "0.01"]) == 2


class TestEndToEnd:
    def test_metrics_port_and_profile_lifecycle(self, tmp_path, capsys):
        import json
        import re
        import urllib.request

        from repro.obs.profile import parse_collapsed

        profile_out = tmp_path / "p.collapsed"
        code = main([
            "--metrics-port", "0", "--profile", str(profile_out),
            "simulate", "--out", str(tmp_path / "cat"), "--days", "7",
            "--scale", "0.2", "--datasets", "taxi", "--seed", "3",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        # The exporter announced its chosen port and was reachable during
        # the run (it is down by now; the announcement is the contract).
        match = re.search(r"http://127\.0\.0\.1:(\d+)/metrics", printed)
        assert match, printed
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(match.group(0), timeout=1.0)
        assert f"profile written to {profile_out}" in printed
        parsed = parse_collapsed(profile_out.read_text())
        assert parsed and all(
            isinstance(n, int) and n > 0 for n in parsed.values()
        )

        # stats --json on the produced catalog's index is covered by
        # ci_obs; here the trace-free default path must not have written
        # any trace file next to the profile.
        assert list(tmp_path.glob("*.json")) == []

    def test_top_renders_one_frame_from_a_live_exporter(self, capsys):
        from repro import obs

        exporter = obs.start_exporter(0)
        try:
            obs.counter("repro.worker.tasks", kind="map").inc(4)
            code = main([
                "top", "--url", exporter.url, "--interval", "0.01",
                "--frames", "1",
            ])
        finally:
            obs.stop_exporter()
        assert code == 0
        frame = capsys.readouterr().out
        assert "WORKER" in frame or "fleet" in frame or frame

    def test_simulate_then_query(self, tmp_path, capsys):
        out = tmp_path / "cat"
        argv = [
            "simulate",
            "--out",
            str(out),
            "--days",
            "21",
            "--scale",
            "0.3",
            "--datasets",
            "taxi,weather",
            "--seed",
            "5",
        ]
        code = main(argv)
        assert code == 0
        assert (out / "catalog.json").exists()
        assert (out / "taxi.csv").exists()

        argv = [
            "query",
            "--data",
            str(out),
            "--permutations",
            "30",
            "--temporal",
            "day",
            "--top",
            "5",
        ]
        code = main(argv)
        assert code == 0
        printed = capsys.readouterr().out
        assert "evaluated" in printed
        assert "scalar functions" in printed

    def test_query_with_find_filter(self, tmp_path, capsys):
        out = tmp_path / "cat"
        argv = [
            "simulate",
            "--out",
            str(out),
            "--days",
            "14",
            "--scale",
            "0.2",
            "--datasets",
            "taxi,weather,citibike",
        ]
        main(argv)
        argv = [
            "query",
            "--data",
            str(out),
            "--find",
            "taxi",
            "--permutations",
            "20",
            "--temporal",
            "day",
        ]
        code = main(argv)
        assert code == 0

    def test_demo_runs(self, capsys):
        assert main(["demo", "--seed", "3"]) == 0
        assert "relationships" in capsys.readouterr().out

    def test_index_then_query_skips_reindexing(self, tmp_path, capsys):
        """`repro index` + `repro query --index` must reproduce the catalog
        path's relationships exactly, without rebuilding the index."""
        cat = tmp_path / "cat"
        idx = tmp_path / "idx"
        argv = [
            "simulate",
            "--out",
            str(cat),
            "--days",
            "14",
            "--scale",
            "0.2",
            "--datasets",
            "taxi,weather",
            "--seed",
            "5",
        ]
        main(argv)
        capsys.readouterr()

        argv = [
            "index",
            "--data",
            str(cat),
            "--out",
            str(idx),
            "--temporal",
            "day",
        ]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert "saved index" in printed
        assert (idx / "index.json").exists()

        argv = [
            "query",
            "--data",
            str(cat),
            "--temporal",
            "day",
            "--permutations",
            "25",
            "--seed",
            "0",
        ]
        assert main(argv) == 0
        from_catalog = capsys.readouterr().out

        argv = [
            "query",
            "--index",
            str(idx),
            "--permutations",
            "25",
            "--seed",
            "0",
        ]
        assert main(argv) == 0
        from_index = capsys.readouterr().out
        assert "re-indexing skipped" in from_index

        def relationship_lines(text):
            return [line for line in text.splitlines() if "tau=" in line]

        assert relationship_lines(from_catalog) == relationship_lines(from_index)

        # A resolution the index was not built with must fail loudly, not
        # return an empty "no relationships" result.
        argv = [
            "query",
            "--index",
            str(idx),
            "--temporal",
            "week",
            "--permutations",
            "10",
        ]
        assert main(argv) == 2
        assert "not materialized in this index" in capsys.readouterr().err

    def test_index_refuses_to_clobber_without_force(self, tmp_path, capsys):
        """Satellite: `repro index` onto an existing index must refuse and
        point at `repro update`, unless --force is given."""
        cat = tmp_path / "cat"
        idx = tmp_path / "idx"
        argv = [
            "simulate",
            "--out",
            str(cat),
            "--days",
            "10",
            "--scale",
            "0.15",
            "--datasets",
            "taxi,weather",
            "--seed",
            "5",
        ]
        main(argv)
        argv = [
            "index",
            "--data",
            str(cat),
            "--out",
            str(idx),
            "--temporal",
            "day",
        ]
        assert main(argv) == 0
        manifest_before = (idx / "index.json").read_bytes()
        capsys.readouterr()

        argv = [
            "index",
            "--data",
            str(cat),
            "--out",
            str(idx),
            "--temporal",
            "day",
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "repro update" in err and "--force" in err
        assert (idx / "index.json").read_bytes() == manifest_before

        argv = [
            "index",
            "--data",
            str(cat),
            "--out",
            str(idx),
            "--temporal",
            "day",
            "--force",
        ]
        assert main(argv) == 0

    def test_update_maintains_all_viable_spatial_scope(self, tmp_path, capsys):
        """An index built without a spatial whitelist records scope
        spatial=None ("all viable"); when a later catalog adds a data set
        viable at *more* spatial resolutions than any existing partition,
        `repro update` must include them — exactly like a fresh build."""
        import json

        cat, cat2 = tmp_path / "cat", tmp_path / "cat2"
        idx = tmp_path / "idx"
        # weather is city-viable only, so the index has only city partitions.
        argv = [
            "simulate",
            "--out",
            str(cat),
            "--days",
            "10",
            "--scale",
            "0.15",
            "--datasets",
            "weather",
            "--seed",
            "5",
        ]
        main(argv)
        argv = [
            "index",
            "--data",
            str(cat),
            "--out",
            str(idx),
            "--temporal",
            "day",
        ]
        assert main(argv) == 0
        argv = [
            "simulate",
            "--out",
            str(cat2),
            "--days",
            "10",
            "--scale",
            "0.15",
            "--datasets",
            "taxi,weather",
            "--seed",
            "5",
        ]
        main(argv)
        capsys.readouterr()
        assert main(["update", "--data", str(cat2), "--index", str(idx)]) == 0
        manifest = json.loads((idx / "index.json").read_text())
        assert manifest["scope"] == {"spatial": None, "temporal": ["day"]}
        taxi_spatials = {
            r["spatial"] for r in manifest["partitions"] if r["dataset"] == "taxi"
        }
        assert taxi_spatials == {"zip", "neighborhood", "city"}
        # weather's records are identical across the two simulations, so its
        # partition rode through the update untouched.
        assert "1 keep" in capsys.readouterr().out

    def test_index_clobber_guard_resolves_like_save(
        self, tmp_path, capsys, monkeypatch
    ):
        """The guard must expanduser/resolve --out exactly as save_index
        does, so `~/idx` cannot slip past it and clobber $HOME/idx."""
        monkeypatch.setenv("HOME", str(tmp_path))
        cat = tmp_path / "cat"
        argv = [
            "simulate",
            "--out",
            str(cat),
            "--days",
            "10",
            "--scale",
            "0.15",
            "--datasets",
            "taxi",
            "--seed",
            "5",
        ]
        main(argv)
        argv = [
            "index",
            "--data",
            str(cat),
            "--out",
            str(tmp_path / "idx"),
            "--temporal",
            "day",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        argv = [
            "index",
            "--data",
            str(cat),
            "--out",
            "~/idx",
            "--temporal",
            "day",
        ]
        assert main(argv) == 2
        assert "repro update" in capsys.readouterr().err

    def test_update_verb_dry_run_and_apply(self, tmp_path, capsys):
        cat = tmp_path / "cat"
        cat2 = tmp_path / "cat2"
        idx = tmp_path / "idx"
        argv = [
            "simulate",
            "--out",
            str(cat),
            "--days",
            "10",
            "--scale",
            "0.15",
            "--datasets",
            "taxi,weather",
            "--seed",
            "5",
        ]
        main(argv)
        argv = [
            "index",
            "--data",
            str(cat),
            "--out",
            str(idx),
            "--temporal",
            "day",
        ]
        main(argv)
        capsys.readouterr()

        # Dry run against the unchanged catalog: a no-op plan, no writes.
        manifest_before = (idx / "index.json").read_bytes()
        argv = [
            "update",
            "--data",
            str(cat),
            "--index",
            str(idx),
            "--dry-run",
        ]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert "nothing to do" in printed
        assert (idx / "index.json").read_bytes() == manifest_before

        # Mutate the catalog (append days + add a data set) and apply.
        argv = [
            "simulate",
            "--out",
            str(cat2),
            "--days",
            "14",
            "--scale",
            "0.15",
            "--datasets",
            "taxi,weather,citibike",
            "--seed",
            "5",
        ]
        main(argv)
        capsys.readouterr()
        argv = [
            "update",
            "--data",
            str(cat2),
            "--index",
            str(idx),
        ]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert "update plan:" in printed and "updated" in printed

        # The updated index answers exactly like an index built from the
        # mutated catalog directly.
        argv = [
            "query",
            "--data",
            str(cat2),
            "--temporal",
            "day",
            "--permutations",
            "25",
            "--seed",
            "0",
        ]
        assert main(argv) == 0
        from_catalog = capsys.readouterr().out
        argv = [
            "query",
            "--index",
            str(idx),
            "--permutations",
            "25",
            "--seed",
            "0",
        ]
        assert main(argv) == 0
        from_index = capsys.readouterr().out

        def relationship_lines(text):
            return [line for line in text.splitlines() if "tau=" in line]

        assert relationship_lines(from_catalog) == relationship_lines(from_index)
