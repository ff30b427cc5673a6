"""Append-only JSONL run ledger: the pipeline's performance history.

Every measured run -- a benchmark round set or a ``repro profile``
execution -- appends one JSON object (one line) to a ledger file, so
the performance trajectory is a queryable series.  The ledger is the
only home of bench timing and counters (``BENCH_*.json`` files hold a
bench's results alone).  Records are self-describing and versioned::

    {
      "schema": "repro-ledger",
      "schema_version": 3,
      "bench": "schedule",              # series key (bench or profile name)
      "kind": "bench",                  # "bench" | "profile" | "explain"
      "timestamp": "2026-08-06T12:00:00Z",
      "git_sha": "b9c0110...",          # null outside a git checkout
      "samples": [0.0041, 0.0043],      # per-round raw wall times (seconds)
      "counters": {"atpg.podem.backtracks": 7010, ...},  # zeros included
      "env": {"python": "3.12.1", "platform": "linux",
              "cpus": 8},
      "histograms": {"atpg.time": {"count": 4, "sum": 0.8,
                     "p50": 0.05, ...}, ...},  # optional (v3), summaries
      "results": {...}                  # optional free-form payload
    }

Counters record *every* touched instrument (including zero values):
the regression gate in :mod:`repro.obs.regress` needs "counter is
zero" and "counter never existed" to be distinguishable facts.

Appends are atomic: each record is serialized to one line and written
with a single ``os.write`` on an ``O_APPEND`` descriptor, so concurrent
writers (parallel bench shards, CI matrix jobs sharing a volume)
interleave whole records, never partial lines.

Run ``python -m repro.obs.ledger FILE...`` to check ledger files (exit
0 valid, 1 on any bad or unreadable file, 2 without arguments).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import LedgerSchemaError
from repro.obs.metrics import DEFAULT_REGISTRY, MetricsRegistry

# module scope so the instrument exists (as zero) in any snapshot taken
# after this module is imported -- lazy creation would make the counter
# universe depend on whether an append already happened in the process
_APPENDS = DEFAULT_REGISTRY.counter("ledger.appends")

LEDGER_SCHEMA = "repro-ledger"
#: version history: 1 -- initial (kinds "bench"/"profile");
#: 2 -- added kind "serve" (planning-daemon sessions; the daemon is
#: gone and the kind is no longer admitted);
#: 3 -- adds the optional ``histograms`` field ({name: summary dict},
#: the well-defined empty-summary shape included; profile records carry
#: their stage-time histograms here);
#: 4 -- adds kind "explain" and the optional ``attrib`` field (a full
#: ``repro-attrib`` search-effort artifact, validated against
#: :mod:`repro.obs.attrib` on append)
LEDGER_SCHEMA_VERSION = 4

#: record kinds the schema admits
RECORD_KINDS = ("bench", "profile", "explain")

_REQUIRED_FIELDS = {
    "schema": str,
    "schema_version": int,
    "bench": str,
    "kind": str,
    "timestamp": str,
    "samples": list,
    "counters": dict,
    "env": dict,
}

_ENV_FIELDS = ("python", "platform", "cpus")


# ----------------------------------------------------------------------
# record construction
# ----------------------------------------------------------------------
def environment_fingerprint() -> Dict:
    """The run environment facts a comparison must hold constant.

    Python version and CPU count move the wall-time distribution.  The
    regression gate downgrades the wall-time comparison to advisory when
    fingerprints differ (cross-machine baselines) while keeping the
    counter gate exact -- counters are pure functions of the seed.
    """
    return {
        "python": platform.python_version(),
        "platform": sys.platform,
        "cpus": os.cpu_count() or 1,
    }


def current_git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The checkout's HEAD SHA, or ``None`` outside a usable git repo."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def utc_timestamp(epoch_s: Optional[float] = None) -> str:
    """ISO-8601 UTC timestamp (``2026-08-06T12:00:00Z``)."""
    if epoch_s is None:
        epoch_s = time.time()
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch_s))


def make_record(
    bench: str,
    samples: Sequence[float],
    counters: Optional[Dict] = None,
    registry: Optional[MetricsRegistry] = None,
    results=None,
    kind: str = "bench",
    env: Optional[Dict] = None,
    git_sha: Optional[str] = "auto",
    timestamp: Optional[str] = None,
    histograms: Optional[Dict] = None,
    attrib: Optional[Dict] = None,
) -> Dict:
    """Build a schema-valid ledger record.

    ``counters`` defaults to every counter in ``registry`` (the shared
    registry when neither is given), zeros included.  ``git_sha="auto"``
    resolves HEAD; pass ``None`` to record an unversioned run.
    ``histograms`` (optional, schema v3) carries summary dicts keyed by
    instrument name -- :meth:`MetricsRegistry.histograms` output, e.g.
    a profile's stage times; omitted entirely when not given.
    ``attrib`` (optional, schema v4) embeds a ``repro-attrib``
    search-effort artifact, schema-checked on its own terms.
    """
    if counters is None:
        registry = registry if registry is not None else DEFAULT_REGISTRY
        counters = dict(registry.counters())
    record = {
        "schema": LEDGER_SCHEMA,
        "schema_version": LEDGER_SCHEMA_VERSION,
        "bench": bench,
        "kind": kind,
        "timestamp": timestamp if timestamp is not None else utc_timestamp(),
        "git_sha": current_git_sha() if git_sha == "auto" else git_sha,
        "samples": [float(value) for value in samples],
        "counters": dict(counters),
        "env": dict(env) if env is not None else environment_fingerprint(),
    }
    if results is not None:
        record["results"] = results
    if histograms is not None:
        record["histograms"] = {
            name: dict(summary) for name, summary in histograms.items()
        }
    if attrib is not None:
        record["attrib"] = dict(attrib)
    validate_record(record)
    return record


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def validate_record(record: Dict) -> None:
    """Raise :class:`LedgerSchemaError` listing every schema violation."""
    if not isinstance(record, dict):
        raise LedgerSchemaError(
            f"ledger record must be an object, got {type(record).__name__}"
        )
    problems: List[str] = []
    for field, kinds in _REQUIRED_FIELDS.items():
        if field not in record:
            problems.append(f"missing field {field!r}")
        elif not isinstance(record[field], kinds):
            problems.append(f"field {field!r} has type {type(record[field]).__name__}")
    if not problems:
        if record["schema"] != LEDGER_SCHEMA:
            problems.append(
                f"schema is {record['schema']!r}, expected {LEDGER_SCHEMA!r}"
            )
        if record["schema_version"] > LEDGER_SCHEMA_VERSION:
            problems.append(
                f"schema_version {record['schema_version']} is newer than "
                f"{LEDGER_SCHEMA_VERSION}"
            )
        if not record["bench"]:
            problems.append("bench name is empty")
        if record["kind"] not in RECORD_KINDS:
            problems.append(f"kind {record['kind']!r} not in {RECORD_KINDS}")
        if "git_sha" not in record:
            problems.append("missing field 'git_sha' (null is fine)")
        elif not isinstance(record["git_sha"], (str, type(None))):
            problems.append("field 'git_sha' must be a string or null")
        if not record["samples"]:
            problems.append("samples list is empty")
        for index, value in enumerate(record["samples"]):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"sample {index} is not a number")
            elif value < 0:
                problems.append(f"sample {index} is negative")
        for key, value in record["counters"].items():
            if not isinstance(key, str) or not isinstance(value, (int, float)):
                problems.append(f"counter {key!r} is not a string->number entry")
        for field in _ENV_FIELDS:
            if field not in record["env"]:
                problems.append(f"env misses {field!r}")
        if "histograms" in record:
            problems.extend(_histogram_problems(record["histograms"]))
        if "attrib" in record:
            problems.extend(_attrib_problems(record["attrib"]))
    if problems:
        raise LedgerSchemaError("; ".join(problems))


def _histogram_problems(histograms) -> List[str]:
    """Schema checks for the optional v3 ``histograms`` field.

    Each entry is a summary dict; ``count``/``sum`` are required and
    numeric, order statistics may be ``None`` (the empty-histogram
    shape) but never anything non-numeric.
    """
    if not isinstance(histograms, dict):
        return ["field 'histograms' must be an object"]
    problems: List[str] = []
    for name, summary in histograms.items():
        if not isinstance(name, str) or not isinstance(summary, dict):
            problems.append(f"histogram {name!r} is not a string->object entry")
            continue
        for field in ("count", "sum"):
            value = summary.get(field)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"histogram {name!r} misses numeric {field!r}")
        for field, value in summary.items():
            if field in ("count", "sum"):
                continue
            if value is not None and (
                not isinstance(value, (int, float)) or isinstance(value, bool)
            ):
                problems.append(
                    f"histogram {name!r} stat {field!r} is neither a number nor null"
                )
    return problems


def _attrib_problems(attrib) -> List[str]:
    """Schema checks for the optional v4 ``attrib`` field.

    The embedded artifact is checked by its own schema validator, so a
    ledger cannot carry an attribution payload the standalone
    ``python -m repro.obs.attrib`` checker would reject.
    """
    from repro.obs.attrib import validate_artifact

    return [f"attrib: {problem}" for problem in validate_artifact(attrib)]


def validate_ledger_file(path: str) -> int:
    """Validate every line of a JSONL ledger; returns the record count."""
    count = 0
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as error:
                raise LedgerSchemaError(f"line {lineno}: not JSON ({error})")
            try:
                validate_record(record)
            except LedgerSchemaError as error:
                raise LedgerSchemaError(f"line {lineno}: {error}")
            count += 1
    return count


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------
class RunLedger:
    """One JSONL ledger file: append records, read series back.

    Reading tolerates nothing: a malformed line raises
    :class:`LedgerSchemaError` with its line number, because a ledger
    that silently skips records cannot be trusted as a baseline.
    """

    def __init__(self, path) -> None:
        self.path = str(path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunLedger({self.path!r})"

    def exists(self) -> bool:
        return os.path.exists(self.path)

    # ------------------------------------------------------------------
    def append(self, record: Dict) -> Dict:
        """Validate and atomically append one record (one line)."""
        validate_record(record)
        line = json.dumps(record, sort_keys=True) + "\n"
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
        _APPENDS.inc()
        return record

    def append_from_registry(
        self,
        bench: str,
        samples: Sequence[float],
        registry: Optional[MetricsRegistry] = None,
        **kwargs,
    ) -> Dict:
        """Shorthand: build a record from a registry snapshot and append."""
        return self.append(
            make_record(bench, samples, registry=registry, **kwargs)
        )

    # ------------------------------------------------------------------
    def records(self, bench: Optional[str] = None) -> List[Dict]:
        """Every record (oldest first), optionally for one series."""
        if not self.exists():
            return []
        loaded: List[Dict] = []
        with open(self.path) as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    validate_record(record)
                except (ValueError, LedgerSchemaError) as error:
                    raise LedgerSchemaError(f"{self.path}:{lineno}: {error}")
                if bench is None or record["bench"] == bench:
                    loaded.append(record)
        return loaded

    def benches(self) -> List[str]:
        """The distinct series keys, sorted."""
        return sorted({record["bench"] for record in self.records()})

    def latest(self, bench: str) -> Optional[Dict]:
        """The newest record of one series (file order, not timestamps)."""
        series = self.records(bench)
        return series[-1] if series else None

    def window(self, bench: str, size: int, before: Optional[int] = None) -> List[Dict]:
        """The last ``size`` records of a series (optionally ending at
        index ``before``, exclusive) -- the regression baseline window."""
        series = self.records(bench)
        if before is not None:
            series = series[:before]
        if size <= 0:
            return series
        return series[-size:]


def pooled_samples(records: Iterable[Dict]) -> List[float]:
    """Every raw wall-time sample across records, in record order."""
    samples: List[float] = []
    for record in records:
        samples.extend(float(value) for value in record["samples"])
    return samples


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: validate JSONL run ledgers; exit 1 on any failure."""
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        print("usage: python -m repro.obs.ledger FILE [FILE...]", file=sys.stderr)
        return 2
    failures = 0
    for path in paths:
        try:
            count = validate_ledger_file(path)
        except (OSError, ValueError, LedgerSchemaError) as error:
            failures += 1
            print(f"FAIL {path}: {error}")
        else:
            print(f"ok   {path} ({count} records)")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
