"""CLI entry for a standalone allocator service process.

Run on any machine the clients can reach::

    REPRO_SERVICE_TOKEN=<32 hex chars> \\
        python -m repro.service --host 0.0.0.0 --port 9930

The process carries no pre-shared state beyond the token (never
passed on the command line, where it would leak via ``ps``).  Once
listening it prints one line —
``SERVICE-READY <host> <port>`` — so spawners can scrape the bound
ephemeral port, then serves until killed or sent a SHUTDOWN frame.
"""

from __future__ import annotations

import argparse
import os

from ..net import parse_token
from ..topology import TwoTierClos
from .server import FlowtuneService

_TOKEN_ENV = "REPRO_SERVICE_TOKEN"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Always-on Flowtune allocator service")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 picks an ephemeral port (printed on the "
                             "SERVICE-READY line)")
    parser.add_argument("--racks", type=int, default=3)
    parser.add_argument("--hosts-per-rack", type=int, default=8)
    parser.add_argument("--spines", type=int, default=2)
    parser.add_argument("--mode", choices=("auto", "manual"),
                        default="auto")
    parser.add_argument("--scheduler-mode",
                        choices=("flowtune", "sampled", "ecmp"),
                        default="flowtune",
                        help="rate-assignment scheme: full Flowtune, "
                             "sieve-sampled Flowtune (elephants priced, "
                             "mice on ECMP) or pure ECMP fair share")
    parser.add_argument("--promote-bytes", type=float, default=float(1 << 20),
                        help="sampled mode: new-byte accumulation at "
                             "which a flow is promoted to elephant")
    parser.add_argument("--idle-epochs", type=int, default=100,
                        help="sampled mode: allocation epochs without "
                             "byte growth before an elephant is demoted")
    parser.add_argument("--gamma", type=float, default=1.0)
    parser.add_argument("--threshold", type=float, default=0.01)
    parser.add_argument("--iters-per-cycle", type=int, default=1)
    parser.add_argument("--min-cycle", type=float, default=0.0005)
    parser.add_argument("--resume-grace", type=float, default=2.0,
                        help="seconds a dropped client's flows stay "
                             "alive awaiting a RESUME (0 disables "
                             "resumption)")
    parser.add_argument("--churn-rate", type=float, default=None,
                        help="per-client churn-event budget, events/sec "
                             "(default: unlimited)")
    parser.add_argument("--churn-burst", type=float, default=None,
                        help="token-bucket depth for --churn-rate "
                             "(default: one second's worth)")
    parser.add_argument("--max-pending", type=int, default=None,
                        help="per-client bound on queued-but-unapplied "
                             "churn events (auto mode only)")
    parser.add_argument("--max-outbox", type=int, default=1 << 23,
                        help="slow-reader bound: unsent push bytes "
                             "before a client is dropped")
    args = parser.parse_args(argv)

    token = parse_token(os.environ.get(_TOKEN_ENV), env_var=_TOKEN_ENV)
    topology = TwoTierClos(n_racks=args.racks,
                           hosts_per_rack=args.hosts_per_rack,
                           n_spines=args.spines)
    service = FlowtuneService(
        topology, host=args.host, port=args.port, token=token,
        mode=args.mode, gamma=args.gamma,
        scheduler_mode=args.scheduler_mode,
        promote_bytes=args.promote_bytes, idle_epochs=args.idle_epochs,
        update_threshold=args.threshold,
        iters_per_cycle=args.iters_per_cycle, min_cycle=args.min_cycle,
        resume_grace=args.resume_grace, churn_rate=args.churn_rate,
        churn_burst=args.churn_burst, max_pending=args.max_pending,
        max_outbox=args.max_outbox)
    print(f"SERVICE-READY {service.address[0]} {service.address[1]}",
          flush=True)
    try:
        service.run()
    finally:
        service.close()


if __name__ == "__main__":
    main()
