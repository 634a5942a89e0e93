"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main

RT_SQL = (
    "SELECT * FROM imagenet WHERE PRESENT(frame) = True "
    "ORACLE LIMIT 500 USING SCORE(frame) RECALL TARGET 90% WITH PROBABILITY 95%"
)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestDatasets:
    def test_lists_all_workloads(self):
        code, output = run_cli(["datasets"])
        assert code == 0
        for name in ("imagenet", "night-street", "ontonotes", "tacred"):
            assert name in output


class TestQuery:
    def test_inline_sql(self):
        code, output = run_cli(
            ["query", "--dataset", "imagenet", "--size", "10000", "--sql", RT_SQL]
        )
        assert code == 0
        assert "recall" in output and "oracle" in output

    def test_sql_file(self, tmp_path):
        sql_file = tmp_path / "q.sql"
        sql_file.write_text(RT_SQL)
        code, output = run_cli(
            ["query", "--dataset", "imagenet", "--size", "10000", "--sql-file", str(sql_file)]
        )
        assert code == 0
        assert "is-ci-r" in output

    def test_method_override(self):
        code, output = run_cli(
            [
                "query", "--dataset", "imagenet", "--size", "10000",
                "--sql", RT_SQL, "--method", "u-noci-r",
            ]
        )
        assert code == 0
        assert "u-noci-r" in output

    def test_both_sql_sources_rejected(self, tmp_path):
        sql_file = tmp_path / "q.sql"
        sql_file.write_text(RT_SQL)
        code, _ = run_cli(
            [
                "query", "--dataset", "imagenet",
                "--sql", RT_SQL, "--sql-file", str(sql_file),
            ]
        )
        assert code == 2

    def test_sanitized_alias_for_beta(self):
        sql = RT_SQL.replace("FROM imagenet", "FROM beta_0_01_1_")
        code, output = run_cli(
            ["query", "--dataset", "beta(0.01,1)", "--size", "20000", "--sql", sql]
        )
        assert code == 0


class TestPlan:
    def test_recall_plan(self):
        code, output = run_cli(
            ["plan", "--dataset", "beta(0.01,1)", "--target", "recall",
             "--gamma", "0.9", "--size", "50000"]
        )
        assert code == 0
        assert "recommended budget" in output
        assert "positive draws" in output

    def test_precision_plan(self):
        code, output = run_cli(
            ["plan", "--dataset", "imagenet", "--target", "precision",
             "--gamma", "0.95", "--size", "10000"]
        )
        assert code == 0
        assert "recommended budget" in output


class TestExperiment:
    def test_tab5_renders_and_saves(self, tmp_path):
        save_path = tmp_path / "tab5.json"
        code, output = run_cli(["experiment", "tab5", "--save", str(save_path)])
        assert code == 0
        assert "[tab5]" in output
        payload = json.loads(save_path.read_text())
        assert payload["experiment_id"] == "tab5"


BATCH_SQL = ";\n".join(
    [
        RT_SQL,
        RT_SQL.replace("RECALL TARGET 90%", "RECALL TARGET 95%"),
        RT_SQL.replace("RECALL TARGET 90%", "PRECISION TARGET 90%"),
    ]
)


class TestBatchQuery:
    def test_multi_statement_file_runs_as_batch(self, tmp_path):
        sql_file = tmp_path / "batch.sql"
        sql_file.write_text(BATCH_SQL)
        code, output = run_cli(
            ["query", "--dataset", "imagenet", "--size", "10000",
             "--sql-file", str(sql_file)]
        )
        assert code == 0
        assert "-- query 1/3 --" in output and "-- query 3/3 --" in output
        assert output.count("method    :") == 3

    def test_batch_store_stats_reported(self, tmp_path):
        sql_file = tmp_path / "batch.sql"
        sql_file.write_text(BATCH_SQL)
        store = tmp_path / "store"
        code, output = run_cli(
            ["query", "--dataset", "imagenet", "--size", "10000",
             "--sql-file", str(sql_file), "--store-dir", str(store)]
        )
        assert code == 0
        # Two RT targets share one design; the PT query has its own.
        assert "store     : 2 draws" in output

    def test_bad_jobs_value_exits_cleanly(self, tmp_path):
        sql_file = tmp_path / "batch.sql"
        sql_file.write_text(BATCH_SQL)
        code, _ = run_cli(
            ["query", "--dataset", "imagenet", "--size", "10000",
             "--sql-file", str(sql_file), "--jobs", "0"]
        )
        assert code == 2

    def test_batch_jobs_flag_accepted(self, tmp_path):
        sql_file = tmp_path / "batch.sql"
        sql_file.write_text(BATCH_SQL)
        code, output = run_cli(
            ["query", "--dataset", "imagenet", "--size", "10000",
             "--sql-file", str(sql_file), "--jobs", "2"]
        )
        assert code == 0
        assert output.count("method    :") == 3

    def test_sql_file_trailing_semicolon_and_comment(self, tmp_path):
        """A file ending ``;\\n`` (with comments) runs its one query."""
        sql_file = tmp_path / "q.sql"
        sql_file.write_text(f"-- the nightly check\n{RT_SQL};\n")
        code, output = run_cli(
            ["query", "--dataset", "imagenet", "--size", "10000",
             "--sql-file", str(sql_file)]
        )
        assert code == 0
        assert output.count("method    :") == 1

    def test_sql_file_without_statements_reports_cleanly(self, tmp_path, capsys):
        sql_file = tmp_path / "empty.sql"
        sql_file.write_text("-- nothing to run\n;\n")
        code, output = run_cli(
            ["query", "--dataset", "imagenet", "--size", "10000",
             "--sql-file", str(sql_file)]
        )
        assert code == 2
        assert output == ""  # no phantom execution
        assert "no statements" in capsys.readouterr().err


class TestPlanBatchMode:
    def test_plan_file_prints_dedup_plan(self, tmp_path):
        sql_file = tmp_path / "batch.sql"
        sql_file.write_text(BATCH_SQL)
        code, output = run_cli(["plan", str(sql_file), "--size", "10000"])
        assert code == 0
        assert "3 executions" in output
        assert "2 distinct oracle draws" in output

    def test_plan_file_unknown_table(self, tmp_path):
        sql_file = tmp_path / "bad.sql"
        sql_file.write_text(RT_SQL.replace("FROM imagenet", "FROM nope"))
        code, _ = run_cli(["plan", str(sql_file)])
        assert code == 2

    def test_budget_mode_still_requires_flags(self):
        code, _ = run_cli(["plan", "--dataset", "imagenet"])
        assert code == 2

    def test_plan_store_dir_diff_reports_warm_keys(self, tmp_path):
        """The cross-batch reuse report is exact: a plan over an empty
        store counts the labels the batch will pay, and one over a
        primed store counts none, though a new process holds no draw in
        memory."""
        sql_file = tmp_path / "batch.sql"
        sql_file.write_text(BATCH_SQL)
        store = tmp_path / "store"

        code, output = run_cli(["plan", str(sql_file), "--size", "10000",
                                "--store-dir", str(store)])
        assert code == 0
        assert "0/2 draws already warm" in output
        header = next(line for line in output.splitlines() if line.startswith("store diff"))
        predicted = int(header.split("; ")[1].split()[0])
        assert predicted > 0
        assert list(store.iterdir()) == []  # the report writes nothing

        code, output = run_cli(
            ["query", "--dataset", "imagenet", "--size", "10000",
             "--sql-file", str(sql_file), "--store-dir", str(store)]
        )
        assert code == 0
        paid = [int(line.split()[2]) for line in output.splitlines()
                if line.startswith("labels    :")]
        assert paid == [predicted]
        code, output = run_cli(["plan", str(sql_file), "--size", "10000",
                                "--store-dir", str(store)])
        assert code == 0
        assert "0/2 draws already warm; 0 labels still to pay" in output
        assert output.count("labels unknown)") == 2
        assert output.count("cold (0 of ") == 2


class TestServe:
    def _serve_input(self, tmp_path, text):
        path = tmp_path / "input.sql"
        path.write_text(text)
        return str(path)

    def test_stdin_mode_folds_batch(self, tmp_path):
        script = self._serve_input(
            tmp_path,
            f"{RT_SQL};\n"
            f"{RT_SQL.replace('RECALL TARGET 90%', 'RECALL TARGET 95%')};\n",
        )
        code, output = run_cli(
            ["serve", "--dataset", "imagenet", "--size", "10000",
             "--input", script, "--window-queries", "4", "--window-ms", "2000"]
        )
        assert code == 0
        assert "-- query 1 (window 0) --" in output
        assert "-- query 2 (window 0) --" in output
        assert output.count("method    :") == 2
        # Both queries share one design: one window, one draw, one fold.
        assert "1 windows, 2 queries, 1 folded" in output

    def test_stdin_mode_semicolon_inside_comment(self, tmp_path):
        """A ';' inside a -- comment must not truncate the statement."""
        script = self._serve_input(
            tmp_path,
            f"-- header; generated nightly\n{RT_SQL};\n",
        )
        code, output = run_cli(
            ["serve", "--dataset", "imagenet", "--size", "10000",
             "--input", script, "--window-ms", "100"]
        )
        assert code == 0
        assert "syntax error" not in output
        assert output.count("method    :") == 1

    def test_stdin_mode_comments_and_blank_lines(self, tmp_path):
        script = self._serve_input(
            tmp_path,
            f"-- warm-up query\n{RT_SQL}\n\n-- only comments after this\n",
        )
        code, output = run_cli(
            ["serve", "--dataset", "imagenet", "--size", "10000",
             "--input", script, "--window-ms", "100"]
        )
        assert code == 0
        assert output.count("method    :") == 1

    def test_stdin_mode_reports_per_query_errors(self, tmp_path):
        script = self._serve_input(
            tmp_path,
            f"{RT_SQL.replace('FROM imagenet', 'FROM missing')};\n{RT_SQL};\n",
        )
        code, output = run_cli(
            ["serve", "--dataset", "imagenet", "--size", "10000",
             "--input", script, "--window-ms", "100"]
        )
        assert code == 0
        assert "error     :" in output and "missing" in output
        assert output.count("method    :") == 1  # the good query still ran

    def test_store_dir_round_trip(self, tmp_path):
        script = self._serve_input(tmp_path, f"{RT_SQL};\n")
        store = tmp_path / "store"
        for _ in range(2):
            code, output = run_cli(
                ["serve", "--dataset", "imagenet", "--size", "10000",
                 "--input", script, "--window-ms", "100",
                 "--store-dir", str(store)]
            )
            assert code == 0
        # Second process served entirely from the spill directory.
        assert "labels    : 0 drawn" in output

    def test_socket_mode_concurrent_clients_fold(self, tmp_path):
        import socket
        import threading

        from repro.cli import _build_service, _make_socket_server
        import argparse

        args = argparse.Namespace(
            dataset="imagenet", size=10000, seed=0, method=None, bound=None,
            window_queries=3, window_ms=2000.0, jobs=1, store_dir=None,
        )
        service, _, submit_kwargs = _build_service(args)
        server = _make_socket_server(service, "127.0.0.1", 0, submit_kwargs)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            responses = {}

            def client(n):
                with socket.create_connection(("127.0.0.1", port), timeout=60) as conn:
                    conn.sendall((RT_SQL + ";").encode())
                    conn.shutdown(socket.SHUT_WR)
                    responses[n] = conn.makefile().read()

            clients = [threading.Thread(target=client, args=(n,)) for n in range(3)]
            for c in clients:
                c.start()
            for c in clients:
                c.join()
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        assert all(text.startswith("ok #") for text in responses.values())
        assert all("window=0" in text for text in responses.values())
        stats = service.session_stats()
        assert stats["misses"] == 1 and stats["queries_folded"] == 2


class TestStoreSubcommand:
    def test_ls_and_clear_roundtrip(self, tmp_path):
        store = tmp_path / "labels"
        code, _ = run_cli(
            ["query", "--dataset", "imagenet", "--size", "10000",
             "--sql", RT_SQL, "--store-dir", str(store)]
        )
        assert code == 0
        code, output = run_cli(["store", "ls", "--store-dir", str(store)])
        assert code == 0
        (column,) = [line for line in output.splitlines() if line.startswith("labels    :")]
        assert "-labels.npy" in column and "of 10000 labels known" in column
        assert column.endswith("[warm]")
        assert "total     : 1 statistic files" in output
        code, output = run_cli(["store", "clear", "--store-dir", str(store)])
        assert code == 0
        assert "2 store files" in output  # the column and its sidecar
        code, output = run_cli(["store", "ls", "--store-dir", str(store)])
        assert code == 0
        assert "total     : 0 statistic files" in output

    def test_ls_empty_directory(self, tmp_path):
        code, output = run_cli(["store", "ls", "--store-dir", str(tmp_path)])
        assert code == 0
        assert "total     : 0 statistic files, 0 bytes" in output


class TestQueryBoundAndDiagnostics:
    def test_bound_override(self):
        code, output = run_cli(
            [
                "query", "--dataset", "imagenet", "--size", "10000",
                "--sql", RT_SQL, "--method", "u-ci-r", "--bound", "clopper-pearson",
            ]
        )
        assert code == 0
        assert "bound     : clopper-pearson" in output

    def test_default_bound_reported(self):
        code, output = run_cli(
            ["query", "--dataset", "imagenet", "--size", "10000", "--sql", RT_SQL]
        )
        assert code == 0
        assert "bound     : normal" in output

    def test_unknown_bound_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--dataset", "imagenet", "--sql", RT_SQL, "--bound", "magic"]
            )

    def test_ess_ratio_printed_for_importance_sampling(self):
        code, output = run_cli(
            ["query", "--dataset", "imagenet", "--size", "10000", "--sql", RT_SQL]
        )
        assert code == 0
        assert "ess_ratio" in output

    def test_oracle_usage_reports_budget(self):
        code, output = run_cli(
            ["query", "--dataset", "imagenet", "--size", "10000", "--sql", RT_SQL]
        )
        assert code == 0
        assert "of 500 budget" in output


class TestServeRobustness:
    """PR 6: a misbehaving client must never take the server down."""

    def _server(self, window_queries=1, window_ms=500.0):
        import argparse
        import threading

        from repro.cli import _build_service, _make_socket_server

        args = argparse.Namespace(
            dataset="imagenet", size=10000, seed=0, method=None, bound=None,
            window_queries=window_queries, window_ms=window_ms, jobs=1,
            store_dir=None,
        )
        service, _, submit_kwargs = _build_service(args)
        server = _make_socket_server(service, "127.0.0.1", 0, submit_kwargs)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return service, server, server.server_address[1]

    def _teardown(self, service, server):
        server.shutdown()
        server.server_close()
        service.close()

    def _healthy_roundtrip(self, port):
        import socket

        with socket.create_connection(("127.0.0.1", port), timeout=60) as conn:
            conn.sendall((RT_SQL + ";").encode())
            conn.shutdown(socket.SHUT_WR)
            return conn.makefile().read()

    def test_survives_half_closed_socket_mid_statement(self, capsys):
        import socket

        service, server, port = self._server()
        try:
            # Disconnect mid-statement: no terminating ';', then a hard
            # close.  The server logs and drops this client only.
            with socket.create_connection(("127.0.0.1", port), timeout=60) as conn:
                conn.sendall(b"SELECT * FROM imagenet WHERE PRESENT")
                conn.shutdown(socket.SHUT_RDWR)
            assert self._healthy_roundtrip(port).startswith("ok #")
        finally:
            self._teardown(service, server)

    def test_survives_garbage_bytes(self):
        import socket

        service, server, port = self._server()
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=60) as conn:
                conn.sendall(b"\xff\xfe\x00garbage\x80bytes;\n")
                conn.shutdown(socket.SHUT_WR)
                reply = conn.makefile().read()
            assert reply.startswith("error:")  # its own error, not a crash
            assert self._healthy_roundtrip(port).startswith("ok #")
        finally:
            self._teardown(service, server)

    def test_abrupt_reset_does_not_stop_serving(self):
        import socket
        import struct

        service, server, port = self._server()
        try:
            conn = socket.create_connection(("127.0.0.1", port), timeout=60)
            # SO_LINGER 0 makes close() send RST instead of FIN.
            conn.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            conn.sendall((RT_SQL + ";").encode())
            conn.close()
            assert self._healthy_roundtrip(port).startswith("ok #")
        finally:
            self._teardown(service, server)


class TestOracleRobustnessFlags:
    def test_flags_build_retry_policy(self):
        from repro.cli import _retry_policy_from_args

        args = build_parser().parse_args(
            ["query", "--dataset", "imagenet", "--sql", RT_SQL,
             "--oracle-timeout", "5.0", "--oracle-retries", "2"]
        )
        policy = _retry_policy_from_args(args)
        assert policy.retries == 2 and policy.timeout == 5.0

    def test_timeout_alone_defaults_retries(self):
        from repro.cli import _retry_policy_from_args

        args = build_parser().parse_args(
            ["serve", "--dataset", "imagenet", "--oracle-timeout", "5.0"]
        )
        policy = _retry_policy_from_args(args)
        assert policy.retries == 3 and policy.timeout == 5.0

    def test_no_flags_means_no_policy(self):
        from repro.cli import _retry_policy_from_args

        args = build_parser().parse_args(
            ["query", "--dataset", "imagenet", "--sql", RT_SQL]
        )
        assert _retry_policy_from_args(args) is None

    def test_query_runs_with_retry_flags(self):
        code, output = run_cli(
            ["query", "--dataset", "imagenet", "--size", "10000",
             "--sql", RT_SQL, "--oracle-retries", "2"]
        )
        assert code == 0 and "method" in output

    def test_serve_accepts_window_deadline(self, tmp_path):
        script = tmp_path / "queries.sql"
        script.write_text(RT_SQL + ";\n")
        code, output = run_cli(
            ["serve", "--dataset", "imagenet", "--size", "10000",
             "--input", str(script), "--window-ms", "50",
             "--window-deadline", "60", "--oracle-retries", "1"]
        )
        assert code == 0 and "service   :" in output


class TestStoreQuarantineListing:
    def test_ls_reports_quarantined_spills(self, tmp_path):
        store = tmp_path / "labels"
        code, _ = run_cli(
            ["query", "--dataset", "imagenet", "--size", "10000",
             "--sql", RT_SQL, "--store-dir", str(store)]
        )
        assert code == 0
        # Corrupt the label column, trigger quarantine via a re-run.
        from repro.faults import corrupt_statistic

        corrupt_statistic(store, mode="garbage")
        code, _ = run_cli(
            ["query", "--dataset", "imagenet", "--size", "10000",
             "--sql", RT_SQL, "--store-dir", str(store)]
        )
        assert code == 0
        code, output = run_cli(["store", "ls", "--store-dir", str(store)])
        assert code == 0
        assert "quarantine:" in output
        assert "1 corrupted file(s) set aside" in output
        # clear removes quarantined files too; ls goes quiet again.
        code, _ = run_cli(["store", "clear", "--store-dir", str(store)])
        assert code == 0
        code, output = run_cli(["store", "ls", "--store-dir", str(store)])
        assert code == 0
        assert "quarantine:" not in output
