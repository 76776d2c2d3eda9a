"""Analysis-as-a-service: the ``tabby serve`` HTTP job-queue API.

The pipeline the CLI runs once per invocation becomes a long-running
service.  Five job kinds — ``classes``, ``components``, ``diff``,
``snapshot`` (``--snapshot-dir``) and ``live`` (``--live``) — share one
pipeline: acquire the CPG, search, lint and refine when classes were
submitted, fingerprint.

* :mod:`repro.serve.store` — content-hash submission keys (layered on
  the :mod:`repro.core.summary_cache` hashing discipline) and the
  LRU result store that turns identical submissions into cache hits;
* :mod:`repro.serve.jobs` — the async job queue: a bounded worker
  pool, in-flight deduplication (a second identical submission
  attaches to the running job), the job pipeline and graceful drain;
* :mod:`repro.serve.ratelimit` — per-client token-bucket rate
  limiting for the submission endpoint;
* :mod:`repro.serve.app` — the stdlib ``ThreadingHTTPServer`` REST
  layer: ``POST /jobs``, ``GET /jobs/<id>`` (state + live per-phase
  ``CPGStatistics``/``SearchStatistics`` counters), result endpoints
  ``chains``/``lint``/``verdicts``/``diff``/``query``,
  ``DELETE /jobs/<id>``, ``POST /live/refresh`` and ``/stats``.

Start one from the CLI with ``tabby serve --host H --port P
--workers N --cache-dir DIR`` or in-process via
:func:`repro.serve.app.create_server`.
"""

from repro.serve.jobs import (
    Job,
    JobManager,
    JobState,
    Submission,
    normalize_submission,
)
from repro.serve.ratelimit import RateLimiter, TokenBucket
from repro.serve.store import JobResult, ResultStore, bundle_key
from repro.serve.app import TabbyServer, create_server

__all__ = [
    "Job",
    "JobManager",
    "JobState",
    "JobResult",
    "RateLimiter",
    "ResultStore",
    "Submission",
    "TabbyServer",
    "TokenBucket",
    "bundle_key",
    "create_server",
    "normalize_submission",
]
