"""Partition-as-a-service: the long-running ``hypar serve`` daemon.

After four PRs of engine work every entry point was still a one-shot CLI
process that pays interpreter startup, model construction and cost-table
compilation per invocation.  This package reframes the same engines as a
zero-dependency stdlib HTTP service whose warm state -- the process-wide
compiled-table cache, a single-flighted LRU response cache, a persistent
sweep worker pool -- survives across requests:

* :mod:`repro.service.schemas` -- request validation + canonicalization
  and the deterministic cache-key hash;
* :mod:`repro.service.cache` -- the LRU response cache (single flight);
* :mod:`repro.service.app` -- endpoint logic, HTTP-agnostic;
* :mod:`repro.service.server` -- ``ThreadingHTTPServer`` layer and the
  signal-driven ``serve`` loop behind ``hypar serve``;
* :mod:`repro.service.client` -- a thin stdlib client for tests, benches
  and scripts;
* :mod:`repro.service.framing` -- the bounded header-line reader both
  ends share.

See the "Service layer" section of DESIGN.md for the endpoint table,
cache-key recipe and threading model.  The CLI remains the batch path;
the service is the low-latency path for repeated traffic.
"""

from repro._exports import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "DEFAULT_CACHE_SIZE": "cache",
    "DEFAULT_HOST": "server",
    "DEFAULT_PORT": "server",
    "ENDPOINTS": "app",
    "HyParService": "app",
    "PartitionRequest": "schemas",
    "ReplanRequest": "schemas",
    "RequestError": "app",
    "ResultCache": "cache",
    "SchemaError": "schemas",
    "ServiceClient": "client",
    "ServiceClientError": "client",
    "ServiceHTTPServer": "server",
    "ServiceResponse": "client",
    "SimulateRequest": "schemas",
    "SweepRequest": "schemas",
    "build_server": "server",
    "serve": "server",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
