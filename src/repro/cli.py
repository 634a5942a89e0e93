"""Command-line interface for the SUPG reproduction.

Subcommands:

- ``repro datasets`` — list the bundled workloads with their stats;
- ``repro query``    — run SUPG dialect queries against a workload
  (a ``;``-separated multi-statement file runs as one planned batch
  through ``SupgEngine.execute_many``);
- ``repro serve``    — continuously running service: statements read
  from stdin (or a TCP socket with ``--port``) are folded into shared
  plan windows by a ``SupgService``, so concurrent queries sharing a
  sampling design pay for one oracle draw;
- ``repro plan``     — recommend an oracle budget for a query, or
  (given a ``queries.sql`` file) print the batch dedup plan — which
  statements share which oracle draws, and the predicted labels —
  without executing anything (``--store-dir`` additionally draws each
  planned design and counts the records whose label the store's label
  column lacks: the labels the batch would still pay);
- ``repro store``    — inspect (``ls``) or empty (``clear``) a
  persistent ``--store-dir``: label columns and statistic files;
- ``repro experiment`` — regenerate a paper table/figure (optionally
  saving its data series as JSON).

The CLI exists so the reproduction can be driven without writing
Python; every capability it exposes is a thin wrapper over the public
library API.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from pathlib import Path

from .bounds import available_bounds, get_bound
from .core.pipeline import ExecutionContext, SampleStore
from .core.planning import plan_budget
from .core.stats_backend import QUARANTINE_DIRNAME, statistic_entries
from .core.types import ApproxQuery
from .datasets import available_datasets, load_dataset
from .experiments import ALL_EXPERIMENTS, resolve_n_jobs
from .experiments.io import save_result
from .metrics import evaluate_selection
from .oracle import OracleCircuitBreaker, RetryPolicy
from .query import (
    AdmissionRejected,
    QueryShedError,
    QuerySyntaxError,
    SupgEngine,
    SupgService,
    parse_script,
    split_script,
)

__all__ = ["main", "build_parser"]


def _sanitize_table_name(name: str) -> str:
    """Dataset names like "beta(0.01,1)" are not valid dialect
    identifiers; this is the alias the SQL can use instead."""
    return "".join(c if c.isalnum() else "_" for c in name)


def _add_oracle_robustness_flags(sub: argparse.ArgumentParser) -> None:
    """``--oracle-timeout`` / ``--oracle-retries``, shared by query and serve."""
    sub.add_argument(
        "--oracle-timeout",
        type=float,
        default=None,
        help="seconds before one oracle labeling call is considered hung and "
        "retried (default: wait forever)",
    )
    sub.add_argument(
        "--oracle-retries",
        type=int,
        default=None,
        help="retries per oracle call for transient failures (timeouts, "
        "TransientOracleError), with capped exponential backoff; retried "
        "calls are never double-charged against the label budget "
        "(default: 0 unless --oracle-timeout is set, then 3)",
    )


def _add_backend_flags(sub: argparse.ArgumentParser) -> None:
    """``--backend`` / ``--chunk-records``, shared by query and serve."""
    sub.add_argument(
        "--backend",
        choices=("memory", "disk"),
        default=None,
        help="where dataset statistics (the score bucket index, "
        "importance-weight CDFs) live: 'memory' (RAM ndarrays, default) or "
        "'disk' (fingerprint-keyed .npy files under --store-dir opened "
        "as memmap windows; construction is chunked so peak RSS stays "
        "O(--chunk-records), for datasets larger than RAM). Query "
        "results are byte-identical across backends",
    )
    sub.add_argument(
        "--chunk-records",
        type=int,
        default=None,
        help="records per chunk for the disk backend's streaming index "
        "build and CDF passes (default 1048576); requires "
        "--backend disk",
    )


def _retry_policy_from_args(args) -> RetryPolicy | None:
    """A :class:`RetryPolicy` when either robustness flag was passed.

    ``getattr`` defaults keep hand-built namespaces (tests, embedding
    callers) working without the new flags.
    """
    timeout = getattr(args, "oracle_timeout", None)
    retries = getattr(args, "oracle_retries", None)
    if timeout is None and retries is None:
        return None
    return RetryPolicy(retries=3 if retries is None else retries, timeout=timeout)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SUPG: approximate selection with statistical guarantees",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="list bundled workloads")

    query = commands.add_parser("query", help="run a SUPG dialect query")
    query.add_argument("--dataset", required=True, choices=available_datasets())
    query.add_argument("--sql", help="query text (inline)")
    query.add_argument("--sql-file", type=Path, help="file containing the query")
    query.add_argument("--method", default=None, help="selector registry name")
    query.add_argument(
        "--bound",
        default=None,
        choices=available_bounds(),
        help="confidence-bound class for the selector (default: normal approximation)",
    )
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--size", type=int, default=None, help="dataset size override")
    query.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for multi-statement batches (-1 = all cores); "
        "results are bit-identical to --jobs 1",
    )
    query.add_argument(
        "--store-dir",
        type=Path,
        default=None,
        help="persistent store directory: one oracle label column per "
        "dataset, so repeated runs sharing it pay for each record's label once",
    )
    _add_oracle_robustness_flags(query)
    _add_backend_flags(query)

    serve = commands.add_parser(
        "serve",
        help="continuously running SUPG service (plan-window folding)",
    )
    serve.add_argument("--dataset", required=True, choices=available_datasets())
    serve.add_argument("--method", default=None, help="selector registry name")
    serve.add_argument(
        "--bound",
        default=None,
        choices=available_bounds(),
        help="confidence-bound class for the selectors",
    )
    serve.add_argument("--seed", type=int, default=0, help="default per-query seed")
    serve.add_argument("--size", type=int, default=None, help="dataset size override")
    serve.add_argument(
        "--window-queries",
        type=int,
        default=8,
        help="close a plan window once it holds this many statements",
    )
    serve.add_argument(
        "--window-ms",
        type=float,
        default=25.0,
        help="close a plan window this long after its first arrival (ms)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes per window (-1 = all cores); results are "
        "bit-identical to --jobs 1",
    )
    serve.add_argument(
        "--store-dir",
        type=Path,
        default=None,
        help="persistent store directory (one oracle label column per "
        "dataset) shared across restarts",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="serve a TCP socket on this port (0 = ephemeral) instead of "
        "reading statements from stdin",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address for --port")
    serve.add_argument(
        "--input",
        type=Path,
        default=None,
        help="read statements from a file instead of stdin (testing aid)",
    )
    serve.add_argument(
        "--window-deadline",
        type=float,
        default=None,
        help="abort a plan window still running after this many seconds "
        "(its tickets fail; the service keeps serving). Default: no deadline",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help="cap on queued (not yet dispatched) statements; a full queue "
        "resolves per --admission. Default: unbounded",
    )
    serve.add_argument(
        "--admission",
        default="block",
        choices=["block", "reject", "shed_oldest"],
        help="what a full queue does to new submissions: block until space, "
        "reject with a typed overload reply, or shed the oldest batch-lane "
        "statement (default: block)",
    )
    serve.add_argument(
        "--inflight-windows",
        type=int,
        default=1,
        help="plan windows executing concurrently (over disjoint table/seed "
        "groups); the --jobs budget is split fairly across them (default: 1)",
    )
    serve.add_argument(
        "--lane-default",
        default="batch",
        choices=["interactive", "batch"],
        help="scheduling lane for submitted statements (default: batch)",
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=0,
        help="trip an oracle circuit breaker after this many consecutive "
        "oracle failures (0 disables the breaker)",
    )
    serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        help="seconds an open breaker waits before allowing a half-open probe",
    )
    _add_oracle_robustness_flags(serve)
    _add_backend_flags(serve)

    plan = commands.add_parser(
        "plan",
        help="recommend an oracle budget, or print a batch dedup plan",
    )
    plan.add_argument(
        "sql_file",
        nargs="?",
        type=Path,
        default=None,
        help="multi-statement .sql file: print the batch query plan "
        "(statements, distinct oracle draws, predicted labels) without "
        "executing; table names are bundled dataset names or their "
        "sanitized aliases",
    )
    plan.add_argument("--dataset", choices=available_datasets())
    plan.add_argument("--target", choices=["recall", "precision"])
    plan.add_argument("--gamma", type=float)
    plan.add_argument("--delta", type=float, default=0.05)
    plan.add_argument("--method", default=None, help="selector registry name (batch mode)")
    plan.add_argument("--size", type=int, default=None)
    plan.add_argument("--seed", type=int, default=0)
    plan.add_argument(
        "--store-dir",
        type=Path,
        default=None,
        help="batch mode: also draw each planned design and count the "
        "records whose label this store's label column lacks (the labels the "
        "batch would still pay)",
    )

    store = commands.add_parser(
        "store", help="inspect or clear a persistent sample store"
    )
    store.add_argument("action", choices=["ls", "clear"])
    store.add_argument(
        "--store-dir",
        type=Path,
        required=True,
        help="the store directory to inspect or empty",
    )

    experiment = commands.add_parser("experiment", help="regenerate a paper artifact")
    experiment.add_argument("id", choices=sorted(ALL_EXPERIMENTS))
    experiment.add_argument("--save", type=Path, help="write the data series as JSON")
    experiment.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the trial loops (-1 = all cores); "
        "results are bit-identical to --jobs 1",
    )
    experiment.add_argument(
        "--store-dir",
        type=Path,
        default=None,
        help="persistent store directory: every oracle label paid for is "
        "kept in a per-dataset label column and reused by later runs "
        "(results are identical; a repeat run pays zero new oracle labels).  "
        "With --jobs 1 the run also prints the store's reuse counters.",
    )

    return parser


def _store_stats_lines(stats) -> list[str]:
    """Human-readable reuse accounting for one session store."""
    lines = [
        f"store     : {stats['misses']} draws, {stats['hits']} memory hits, "
        f"{stats['quarantined']} quarantined",
        f"labels    : {stats['labels_drawn']} drawn, {stats['labels_saved']} "
        "saved vs naive",
    ]
    if stats.get("zonemap_selects", 0) > 0:
        lines.append(
            f"skipping  : {stats['zonemap_selects']} indexed selects, "
            f"{stats['strata_touched']} strata touched, "
            f"{stats['records_skipped']} records skipped, "
            f"{stats['zonemap_dense_fallbacks']} dense fallbacks"
        )
    return lines


def _cmd_datasets(out) -> int:
    for name in available_datasets():
        dataset = load_dataset(name, seed=0)
        print(dataset.describe(), file=out)
    return 0


def _print_execution(execution, dataset, bound_label, out) -> None:
    """The per-query report block shared by single and batch runs."""
    quality = evaluate_selection(execution.result.indices, dataset.labels)
    result = execution.result
    budget = execution.parsed.oracle_limit
    usage = f" of {budget} budget ({result.oracle_calls / budget:.0%})" if budget else ""
    print(f"method    : {execution.method}", file=out)
    print(f"bound     : {bound_label}", file=out)
    print(f"returned  : {result.size} records (tau={result.tau:.4f})", file=out)
    print(f"oracle    : {result.oracle_calls} labels{usage}", file=out)
    print(f"precision : {quality.precision:.4f}", file=out)
    print(f"recall    : {quality.recall:.4f}", file=out)
    for key in ("ess_ratio", "stage1_ess_ratio"):
        if key in result.details:
            print(f"{key:10s}: {result.details[key]:.4f}", file=out)


def _cmd_query(args, out) -> int:
    if bool(args.sql) == bool(args.sql_file):
        print("provide exactly one of --sql / --sql-file", file=sys.stderr)
        return 2
    try:
        resolve_n_jobs(args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sql = args.sql if args.sql else args.sql_file.read_text()
    dataset = load_dataset(args.dataset, size=args.size, seed=args.seed)
    store_dir = str(args.store_dir) if args.store_dir is not None else None
    try:
        engine = SupgEngine(
            store_dir=store_dir,
            retry_policy=_retry_policy_from_args(args),
            backend=getattr(args, "backend", None),
            chunk_records=getattr(args, "chunk_records", None),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    engine.register_table(args.dataset, dataset)
    # Also register a sanitized alias the SQL can use for dataset names
    # that are not valid dialect identifiers.
    engine.register_table(_sanitize_table_name(args.dataset), dataset)
    kwargs = {}
    if args.bound is not None:
        kwargs["bound"] = get_bound(args.bound)
    bound_label = args.bound or "normal"
    statements = parse_script(sql)
    if not statements:
        # A file of comments / stray semicolons holds no work; saying so
        # beats a phantom execution or an "unexpected end of query" crash.
        print("no statements in input (only comments or semicolons)", file=sys.stderr)
        return 2
    if len(statements) > 1:
        # Multi-statement input runs as one planned batch: shared
        # oracle draws are paid for once, then groups fan across
        # --jobs workers.  Results match a sequential execute() loop.
        print(f"workers   : {resolve_n_jobs(args.jobs)}", file=out)
        executions = engine.execute_many(
            statements, seed=args.seed, method=args.method, jobs=args.jobs, **kwargs
        )
        for number, execution in enumerate(executions, start=1):
            print(f"-- query {number}/{len(executions)} --", file=out)
            _print_execution(execution, dataset, bound_label, out)
    else:
        execution = engine.execute(sql, seed=args.seed, method=args.method, **kwargs)
        _print_execution(execution, dataset, bound_label, out)
    if args.store_dir is not None:
        for line in _store_stats_lines(engine.session_stats()):
            print(line, file=out)
        if len(statements) > 1 and resolve_n_jobs(args.jobs) > 1:
            # Forked workers mutate copy-on-write store copies; their
            # hits never reach the parent's counters.
            print(
                "note      : counters are parent-process only with --jobs > 1 "
                "(worker store hits are not aggregated)",
                file=out,
            )
    return 0


def _build_service(args) -> tuple[SupgService, object, dict]:
    """Engine + service + submit kwargs shared by the serve input modes."""
    dataset = load_dataset(args.dataset, size=args.size, seed=args.seed)
    store_dir = str(args.store_dir) if args.store_dir is not None else None
    engine = SupgEngine(
        store_dir=store_dir,
        retry_policy=_retry_policy_from_args(args),
        backend=getattr(args, "backend", None),
        chunk_records=getattr(args, "chunk_records", None),
    )
    engine.register_table(args.dataset, dataset)
    engine.register_table(_sanitize_table_name(args.dataset), dataset)
    submit_kwargs = {"method": args.method}
    if args.bound is not None:
        submit_kwargs["bound"] = get_bound(args.bound)
    breaker = None
    if getattr(args, "breaker_threshold", 0):
        breaker = OracleCircuitBreaker(
            threshold=args.breaker_threshold,
            cooldown_s=getattr(args, "breaker_cooldown", 30.0),
        )
    service = SupgService(
        engine,
        max_window_queries=args.window_queries,
        max_window_ms=args.window_ms,
        jobs=args.jobs,
        default_seed=args.seed,
        window_deadline_s=getattr(args, "window_deadline", None),
        max_queue_depth=getattr(args, "max_queue", None),
        admission=getattr(args, "admission", "block"),
        default_lane=getattr(args, "lane_default", "batch"),
        max_inflight_windows=getattr(args, "inflight_windows", 1),
        breaker=breaker,
    )
    return service, dataset, submit_kwargs


#: Client-visible control words (not SUPG statements): either returns
#: the service's health snapshot as one JSON line.
_HEALTH_COMMANDS = frozenset({"stats", "health", ".stats", ".health"})


def _health_command(chunk: str) -> bool:
    """Whether a chunk is a health-snapshot request, not a statement."""
    return chunk.strip().rstrip(";").strip().lower() in _HEALTH_COMMANDS


def _health_line(service) -> str:
    return json.dumps(service.health(), sort_keys=True)


def _overload_line(service, exc) -> str:
    """The typed one-line overload reply (client contract: parse the
    ``retry_after`` and back off)."""
    hint = getattr(exc, "retry_after_hint", None)
    if hint is None:
        hint = getattr(exc, "retry_after", None)
    if hint is None:
        hint = service._retry_hint()
    return f"ERROR overloaded retry_after={hint:.3f}"


def _holds_statement(chunk: str) -> bool:
    """Whether a statement chunk should be submitted.

    Blank or comment-only chunks are dropped; a syntactically broken
    chunk counts so the submit path can report its (offset-bearing)
    error.
    """
    try:
        return bool(parse_script(chunk))
    except QuerySyntaxError:
        return True


def _service_summary_lines(service) -> list[str]:
    stats = service.session_stats()
    lines = [
        f"service   : {stats['windows']} windows, {stats['queries_served']} queries, "
        f"{stats['queries_folded']} folded ({stats['late_folded']} late), "
        f"{stats['window_errors']} errors",
        f"labels    : {stats['labels_drawn']} drawn, {stats['labels_saved']} "
        f"saved vs per-query draws",
    ]
    if stats["rejected"] or stats["shed"] or stats["cancelled"] or stats["blocked_ms"]:
        lines.append(
            f"admission : {stats['admitted']} admitted, {stats['rejected']} "
            f"rejected, {stats['shed']} shed, {stats['cancelled']} cancelled, "
            f"{stats['blocked_ms']}ms blocked"
        )
    return lines


def _cmd_serve(args, out) -> int:
    try:
        workers = resolve_n_jobs(args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"workers   : {workers} per window", file=out)
    try:
        service, dataset, submit_kwargs = _build_service(args)
    except ValueError as exc:
        # e.g. --backend disk without --store-dir
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.port is not None:
            return _serve_socket(service, args, submit_kwargs, out)
        if args.input is not None:
            with args.input.open() as stream:
                return _serve_stream(service, stream, dataset, submit_kwargs, args, out)
        return _serve_stream(service, sys.stdin, dataset, submit_kwargs, args, out)
    finally:
        service.close()


def _serve_stream(service, stream, dataset, submit_kwargs, args, out) -> int:
    """The stdin loop: statements end at ``;``, a blank line, or EOF.

    Submissions are *not* awaited one by one — each flush enqueues every
    complete statement before any result is read, so a pasted burst (or
    a piped file) folds into shared plan windows exactly like
    concurrent network clients would.
    """
    tickets: list = []
    printed = 0
    bound_label = args.bound or "normal"

    def print_ready(block: bool) -> None:
        nonlocal printed
        while printed < len(tickets):
            ticket = tickets[printed]
            if not block and not ticket.done():
                return
            try:
                execution = ticket.result()  # waits; sets ticket.window
            except QueryShedError as exc:
                print(f"-- query {ticket.number + 1} (window {ticket.window}) --", file=out)
                print(_overload_line(service, exc), file=out)
            except Exception as exc:  # surface per-query failures, keep serving
                print(f"-- query {ticket.number + 1} (window {ticket.window}) --", file=out)
                print(f"error     : {exc}", file=out)
            else:
                print(f"-- query {ticket.number + 1} (window {ticket.window}) --", file=out)
                _print_execution(execution, dataset, bound_label, out)
            printed += 1

    def submit_chunks(chunks) -> None:
        for chunk in chunks:
            if _health_command(chunk):
                print(_health_line(service), file=out)
                continue
            if not _holds_statement(chunk):
                continue
            try:
                tickets.append(service.submit(chunk, **submit_kwargs))
            except QuerySyntaxError as exc:
                print(f"syntax error: {exc}", file=out)
            except AdmissionRejected as exc:
                print(_overload_line(service, exc), file=out)

    buffer = ""
    for line in stream:
        if not line.strip():
            # A blank line terminates any in-flight statement.
            submit_chunks([buffer])
            buffer = ""
            print_ready(block=False)
            continue
        buffer += line
        # Tokenizer-aware split: a ';' inside a comment or string
        # literal does not terminate a statement.
        statements, buffer = split_script(buffer)
        if statements:
            submit_chunks(statements)
            print_ready(block=False)
    submit_chunks([buffer])
    print_ready(block=True)
    for line in _service_summary_lines(service):
        print(line, file=out)
    if args.store_dir is not None:
        for line in _store_stats_lines(service.engine.session_stats()):
            print(line, file=out)
    return 0


def _make_socket_server(service, host: str, port: int, submit_kwargs):
    """A threading TCP server over the service (one thread per client).

    Clients send ``;``-delimited statements; each gets a one-line
    ``ok``/``error`` response in its own submission order.  Folding
    happens across clients: concurrent submissions land in the same
    plan window regardless of which connection carried them.  Each
    connection's peer address is its ``client_id``, so round-robin
    fairness applies per connection; a full admission queue answers
    ``ERROR overloaded retry_after=…`` and the line ``stats;`` (or
    ``health;``) returns the service's health snapshot as JSON.
    """
    import socketserver

    class Handler(socketserver.StreamRequestHandler):
        def handle(self) -> None:
            # One misbehaving client — disconnecting mid-statement,
            # resetting the connection, or sending garbage bytes — must
            # never take the server down: log one line, drop the
            # connection, keep serving everyone else.  Garbage decodes
            # via errors="replace" and surfaces as a per-statement
            # syntax error on this client's own connection.
            try:
                buffer = ""
                while True:
                    raw = self.rfile.readline()
                    if not raw:
                        break
                    buffer += raw.decode("utf-8", errors="replace")
                    statements, buffer = split_script(buffer)
                    for chunk in statements:
                        self._respond(chunk)
                if buffer.strip():
                    self._respond(buffer)
            except (ConnectionError, OSError, ValueError) as exc:
                print(
                    f"client {self.client_address}: dropped ({exc})",
                    file=sys.stderr,
                )

        def _respond(self, chunk: str) -> None:
            if _health_command(chunk):
                try:
                    self.wfile.write((_health_line(service) + "\n").encode())
                except OSError:
                    pass
                return
            if not _holds_statement(chunk):
                return
            try:
                ticket = service.submit(
                    chunk,
                    client_id=f"{self.client_address[0]}:{self.client_address[1]}",
                    **submit_kwargs,
                )
                execution = ticket.result()
            except (AdmissionRejected, QueryShedError) as exc:
                # Typed overload reply: the client's cue to back off and
                # resubmit, distinct from a per-query failure.
                line = _overload_line(service, exc) + "\n"
            except Exception as exc:
                line = f"error: {exc}\n"
            else:
                result = execution.result
                line = (
                    f"ok #{ticket.number} window={ticket.window} "
                    f"method={execution.method} returned={result.size} "
                    f"tau={result.tau:.4f} oracle={result.oracle_calls}\n"
                )
            try:
                self.wfile.write(line.encode())
            except OSError:
                pass  # client went away mid-response

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

        def handle_error(self, request, client_address) -> None:
            # Anything the handler's own guard missed (e.g. a reset
            # during the StreamRequestHandler setup/finish handshake):
            # one stderr line instead of socketserver's full traceback,
            # and the accept loop keeps running.
            exc = sys.exc_info()[1]
            print(f"client {client_address}: dropped ({exc})", file=sys.stderr)

    return Server((host, port), Handler)


def _serve_socket(service, args, submit_kwargs, out) -> int:
    with _make_socket_server(service, args.host, args.port, submit_kwargs) as server:
        host, port = server.server_address[:2]
        print(
            f"serving {args.dataset} on {host}:{port} (Ctrl-C to stop)",
            file=out,
            flush=True,
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
    for line in _service_summary_lines(service):
        print(line, file=out)
    return 0


def _cmd_plan(args, out) -> int:
    if args.sql_file is not None:
        return _cmd_plan_batch(args, out)
    if args.dataset is None or args.target is None or args.gamma is None:
        print(
            "budget mode requires --dataset, --target, and --gamma "
            "(or pass a queries.sql file for a batch plan)",
            file=sys.stderr,
        )
        return 2
    dataset = load_dataset(args.dataset, size=args.size, seed=args.seed)
    # The planner ignores the query's budget field; any positive value works.
    query = ApproxQuery(args.target, args.gamma, args.delta, budget=1)
    plan = plan_budget(query, dataset.proxy_scores)
    print(f"workload            : {dataset.describe()}", file=out)
    print(f"recommended budget  : {plan.recommended_budget}", file=out)
    print(f"hard minimum        : {plan.minimum_budget}", file=out)
    print(f"expected positives  : {plan.expected_positive_draws:.1f}", file=out)
    print(f"positive fraction   : {plan.positive_fraction:.4f}", file=out)
    print(f"rationale           : {plan.rationale}", file=out)
    return 0


def _cmd_plan_batch(args, out) -> int:
    """Print a batch's dedup plan — no oracle labels are drawn."""
    statements = parse_script(args.sql_file.read_text())
    if not statements:
        print(f"no statements in {args.sql_file}", file=sys.stderr)
        return 2
    # Resolve each statement's table to a bundled dataset (exact name
    # or sanitized alias), loading each workload once.
    names = {name: name for name in available_datasets()}
    names.update({_sanitize_table_name(name): name for name in available_datasets()})
    engine = SupgEngine()
    loaded: dict[str, object] = {}
    for statement in statements:
        dataset_name = names.get(statement.table)
        if dataset_name is None:
            print(
                f"unknown table {statement.table!r}; tables must name a bundled "
                f"dataset ({', '.join(available_datasets())}) or its alias",
                file=sys.stderr,
            )
            return 2
        if dataset_name not in loaded:
            loaded[dataset_name] = load_dataset(
                dataset_name, size=args.size, seed=args.seed
            )
        engine.register_table(statement.table, loaded[dataset_name])
    plan = engine.plan(statements, seed=args.seed, method=args.method)
    print(plan.render(), file=out)
    if args.store_dir is not None:
        # Cross-batch reuse report: the labels an incremental re-run of
        # this batch would actually pay, against the store's columns.
        store = SampleStore(store_dir=args.store_dir)
        print(plan.render_store_diff(store), file=out)
    return 0


def _cmd_store(args, out) -> int:
    store_dir = args.store_dir
    if args.action == "clear":
        summary = SampleStore.clear_disk(store_dir)
        print(
            f"cleared   : {summary['files_removed']} store files, "
            f"{summary['bytes_freed']} bytes freed",
            file=out,
        )
        return 0
    entries = statistic_entries(store_dir)
    for entry in entries:
        kind, fingerprint = "backend", (entry.get("fingerprint") or "?")[:12]
        if "error" in entry:
            what = f"<unreadable: {entry['error']}>"
        elif "known" in entry:
            kind = "labels"
            what = f"{entry['known']} of {entry['records']} labels known, dataset={fingerprint}"
        else:
            what = f"{entry.get('dtype', '?')} x{entry.get('records', '?')}, dataset={fingerprint}"
        print(
            f"{kind:<10}: {entry['file']}  {entry['bytes']:>9d} B  {what} [{entry['state']}]",
            file=out,
        )
    total = sum(entry["bytes"] for entry in entries)
    print(f"total     : {len(entries)} statistic files, {total} bytes", file=out)
    now = time.time()
    quarantined = SampleStore.quarantine_entries(store_dir)
    for entry in quarantined:
        age = max(0.0, now - entry["mtime"])
        print(
            f"quarantine: {entry['path'].name}  {entry['bytes']:>9d} B  "
            f"{age:8.0f}s old  {entry['reason']}",
            file=out,
        )
    if quarantined:
        print(
            f"quarantine: {len(quarantined)} corrupted file(s) set aside "
            f"(under {QUARANTINE_DIRNAME}/; `repro store clear` removes them)",
            file=out,
        )
    return 0


def _cmd_experiment(args, out) -> int:
    driver = ALL_EXPERIMENTS[args.id]
    try:
        jobs = resolve_n_jobs(args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    params = inspect.signature(driver).parameters
    kwargs = {}
    if "n_jobs" in params:
        kwargs["n_jobs"] = args.jobs
    elif args.jobs != 1:
        print(f"note: {args.id} runs single-process; --jobs ignored", file=sys.stderr)
    context = None
    if args.store_dir is not None:
        # Sequential runs thread one CLI-owned context through the whole
        # driver so the reuse counters can be reported afterwards;
        # parallel runs hand each worker its own store and still share
        # labels across processes through the label columns.
        if "context" in params and jobs == 1:
            context = ExecutionContext(store=SampleStore(store_dir=args.store_dir))
            kwargs["context"] = context
        elif "store_dir" in params:
            kwargs["store_dir"] = str(args.store_dir)
        else:
            print(
                f"note: {args.id} does not use the sample store; --store-dir ignored",
                file=sys.stderr,
            )
    result = driver(**kwargs)
    print(result.render(), file=out)
    if context is not None:
        for line in _store_stats_lines(context.stats()):
            print(line, file=out)
    if args.save is not None:
        written = save_result(result, args.save)
        print(f"saved: {written}", file=out)
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets(out)
    if args.command == "query":
        return _cmd_query(args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    if args.command == "plan":
        return _cmd_plan(args, out)
    if args.command == "store":
        return _cmd_store(args, out)
    if args.command == "experiment":
        return _cmd_experiment(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
