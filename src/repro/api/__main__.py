"""Characterization API server CLI.

Serve campaigns over HTTP/JSON::

    python -m repro.api --port 8642 --store-dir .study-cache

Restrict what tenants may request, and how much::

    python -m repro.api --modules A0 B3 C5 --experiments fig3 fig5 \
        --tenant-quota 8

Exit codes: 0 clean shutdown (SIGINT); 2 configuration error (unknown
module/experiment ids in the allowlists, bad quota).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from repro.api.server import DEFAULT_HOST, DEFAULT_PORT, ApiServer
from repro.errors import ConfigurationError
from repro.harness.validation import validate_experiments, validate_modules

#: Default server-private state directory (job records + checkpoints).
DEFAULT_STATE_DIR = ".api-state"

#: Default content-addressed study-store directory; deliberately the
#: runner's disk-cache default, so API-served and runner-cached studies
#: share one store.
DEFAULT_STORE_DIR = ".study-cache"


def build_parser() -> argparse.ArgumentParser:
    """The API CLI's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.api",
        description=(
            "Serve characterization campaigns over HTTP/JSON: job "
            "queue, SSE telemetry, content-addressed study store."
        ),
    )
    parser.add_argument("--host", default=DEFAULT_HOST,
                        help=f"bind address (default {DEFAULT_HOST})")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"bind port (default {DEFAULT_PORT})")
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker threads executing jobs (default 2)",
    )
    parser.add_argument(
        "--store-dir", default=DEFAULT_STORE_DIR, metavar="DIR",
        help=(
            "content-addressed study store served by /v1/studies "
            f"(default: {DEFAULT_STORE_DIR}, shared with the runner's "
            "disk cache)"
        ),
    )
    parser.add_argument(
        "--state-dir", default=DEFAULT_STATE_DIR, metavar="DIR",
        help=(
            "server state: job records and campaign checkpoints "
            f"(default: {DEFAULT_STATE_DIR})"
        ),
    )
    parser.add_argument(
        "--tenant-quota", type=int, default=64, metavar="N",
        help="max non-terminal jobs per tenant before 429 (default 64)",
    )
    parser.add_argument(
        "--modules", nargs="+", default=None, metavar="ID",
        help="allowlist: modules jobs may request (default: all)",
    )
    parser.add_argument(
        "--experiments", nargs="+", default=None, metavar="ID",
        help="allowlist: experiments jobs may expand (default: all)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help=(
            "enable span tracing: every admitted job gets a trace "
            "context and GET /v1/jobs/<id>/trace serves the stitched "
            "cross-process Chrome trace"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.modules is not None:
            validate_modules(args.modules)
        if args.experiments is not None:
            validate_experiments(args.experiments)
        if args.tenant_quota < 1:
            raise ConfigurationError(
                f"--tenant-quota must be >= 1: {args.tenant_quota}"
            )
        if args.workers < 1:
            raise ConfigurationError(
                f"--workers must be >= 1: {args.workers}"
            )
        server = ApiServer(
            store_dir=args.store_dir,
            state_dir=args.state_dir,
            workers=args.workers,
            tenant_quota=args.tenant_quota,
            allowed_modules=args.modules,
            allowed_experiments=args.experiments,
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.trace:
        from repro.obs.trace import TRACER

        TRACER.label = "repro.api server"
        TRACER.enable()
    print(
        f"repro.api serving on http://{args.host}:{args.port} "
        f"(store: {args.store_dir}, state: {args.state_dir}, "
        f"{args.workers} worker(s))",
        file=sys.stderr,
    )
    # Forks the campaign worker pool, so it runs before anything here
    # starts a thread.
    server.start_workers()
    try:
        asyncio.run(server.serve(host=args.host, port=args.port))
    except KeyboardInterrupt:
        pass
    finally:
        server.stop_workers()
    return 0


if __name__ == "__main__":
    sys.exit(main())
