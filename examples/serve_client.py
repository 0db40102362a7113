"""Solve service client: async submission and result streaming.

Starts an in-process solve service (unless ``--port`` points at a
running ``repro serve``), then shows the two client modes:

* a **concurrent burst** of held (``wait=true``) requests — those
  queued together share one forward pass, so the service classifies
  all of them with fewer HGT forward passes than requests (the
  amortization the service exists for, read back from ``/healthz``);
* a **fire-and-forget** submission (``wait=false``) whose lifecycle
  (QUEUED → INFERRING → SOLVING → DONE) is followed over the NDJSON
  streaming endpoint.

Run:  python examples/serve_client.py
      python examples/serve_client.py --port 8123   # against repro serve
"""

import argparse
import asyncio

from repro.cnf import random_ksat, to_dimacs
from repro.models import NeuroSelect
from repro.serve import ServeClient, ServeConfig, SolveService
from repro.serve.http import bound_address, start_service

BURST = 8


async def demo(client: ServeClient) -> None:
    await client.wait_ready()

    # -- concurrent burst: batched inference -----------------------------
    cnfs = [random_ksat(12 + i, 4 * (12 + i), seed=i) for i in range(BURST)]
    replies = await asyncio.gather(*[
        client.solve(to_dimacs(cnf), max_conflicts=20_000) for cnf in cnfs
    ])
    print(f"burst of {BURST} held requests:")
    for reply in replies:
        body = reply.json
        print(f"  {body['id']}  HTTP {reply.code}  {body['status']:14s} "
              f"policy={body['policy']:9s} batch_size={body['batch_size']}")

    health = (await client.health()).json
    passes, requests = health["inference_passes"], health["requests"]
    print(f"forward passes: {passes} for {requests} requests "
          f"(amortized {'yes' if passes < requests else 'no'})")

    # -- fire-and-forget + lifecycle stream ------------------------------
    ticket = await client.solve(
        to_dimacs(random_ksat(30, 126, seed=99)),
        max_conflicts=20_000,
        wait=False,
    )
    job = ticket.json["id"]
    print(f"\nsubmitted {job} without waiting (HTTP {ticket.code}); streaming:")
    async for snapshot in client.stream(job):
        line = f"  {snapshot['state']:9s}"
        if "policy" in snapshot:
            line += f" policy={snapshot['policy']}"
        if "status" in snapshot:
            line += (f" -> {snapshot['status']} "
                     f"in {snapshot['wall_seconds']:.3f}s")
        print(line)


async def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="port of a running repro serve; 0 (default) "
                             "starts an in-process service instead")
    args = parser.parse_args()

    if args.port:
        await demo(ServeClient(args.host, args.port))
        return

    # No external service: run one in-process on a free port.  A fresh
    # seeded model is untrained but deterministic — batching behaves
    # identically to a trained deployment.
    service = SolveService(
        NeuroSelect(hidden_dim=16, seed=0),
        ServeConfig(max_batch=BURST),
    )
    server, _ = await start_service(service, port=0)
    host, port = bound_address(server)
    print(f"in-process service on http://{host}:{port}\n")
    try:
        await demo(ServeClient(host, port))
    finally:
        server.close()
        await server.wait_closed()
        await service.stop()


if __name__ == "__main__":
    asyncio.run(main())
