"""SOCET-as-a-service: a resident planning daemon with an async job API.

The one-shot CLI pays the full setup cost -- building the SOC netlists,
synthesizing transparency versions, warming the plan cache -- on every
invocation.  This package keeps all of that *resident*
in a long-running daemon (``repro serve``) and exposes planning as jobs
over a small line-delimited JSON protocol (``repro submit`` /
``repro jobs``, or :class:`ServeClient` from code).

Modules:

``protocol``  the versioned ``repro-serve`` wire schema (envelopes,
              job specs, addresses, error codes)
``jobs``      the job lifecycle model and the priority queue
``state``     warm state (SOCs, result cache) and the batch
              runner that executes jobs bit-identically to the CLI
``daemon``    the asyncio server: dispatch, ops, graceful drain
``client``    the synchronous client library
``top``       the ``repro top`` live terminal dashboard
"""

from repro.serve.client import ServeClient
from repro.serve.daemon import ServeConfig, ServeDaemon, start_background
from repro.serve.jobs import Job, JobQueue
from repro.serve.protocol import JOB_TYPES, PROTOCOL, PROTOCOL_VERSION
from repro.serve.top import run_top

__all__ = [
    "ServeClient",
    "ServeConfig",
    "ServeDaemon",
    "start_background",
    "Job",
    "JobQueue",
    "JOB_TYPES",
    "PROTOCOL",
    "PROTOCOL_VERSION",
    "run_top",
]
