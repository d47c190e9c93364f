"""Tamper-evident audit records for traces, run histories, and summaries.

Every published artifact of this reproduction — event traces, run
histories, campaign summaries — is ultimately a sequence of JSON records.
This module makes those sequences *verifiable end-to-end* by folding each
record into a SHA-256 hash chain over its canonical serialisation:

``head₀ = sha256(GENESIS_LABEL)`` and
``headᵢ₊₁ = sha256(headᵢ ‖ sha256(canonical(recordᵢ)))``.

Because each link commits to the entire prefix, *any* mutation — a flipped
byte, a dropped record, two records swapped — changes every subsequent
head, so verification pinpoints the exact first divergent index.  Three
chained artifact families are supported:

* **Sealed JSONL traces** — written by
  :class:`~repro.runtime.sinks.JSONLSink`: one line per event carrying its
  chain head, periodic segment seals, and a final seal.  Verified by
  :func:`verify_sealed_jsonl` (surfaced as ``comdml trace verify``).
* **Run-history audit records** — :func:`history_audit_record` extends
  :meth:`~repro.training.metrics.RunHistory.digest` from a flat hash into
  a per-round chain; :func:`verify_history_record` re-derives it.
* **Campaign summaries** — :func:`repro.experiments.reporting.campaign_summary`
  folds per-cell payload digests through :class:`ChainState`;
  :func:`verify_campaign_summary` re-derives the fold.

All serialisation goes through :func:`canonical_json` (sorted keys, no
whitespace, ``allow_nan=False``), so a digest is a pure function of the
data — never of dict ordering or float quirks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.training.metrics import RunHistory

#: Version label of the chain construction; hashed into the genesis head so
#: records from incompatible constructions can never cross-verify.
ALGORITHM = "sha256-chain-v1"

#: Label whose hash is the chain's genesis head.
GENESIS_LABEL = "comdml-audit-genesis-v1"


def canonical_json(payload: Any) -> str:
    """Canonical JSON form: sorted keys, compact separators, NaN rejected."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def canonical_digest(payload: Any) -> str:
    """sha256 hex digest of a payload's canonical JSON form."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def genesis_head() -> str:
    """The chain head before any record has been folded in."""
    return hashlib.sha256(
        f"{ALGORITHM}:{GENESIS_LABEL}".encode("utf-8")
    ).hexdigest()


@dataclass
class ChainState:
    """Running state of one audit chain: records folded so far + head."""

    index: int = 0
    head: str = field(default_factory=genesis_head)

    def update(self, record: Any) -> str:
        """Fold one record into the chain; returns the new head."""
        record_digest = canonical_digest(record)
        self.head = hashlib.sha256(
            (self.head + record_digest).encode("utf-8")
        ).hexdigest()
        self.index += 1
        return self.head


# ----------------------------------------------------------------------
# Sealed JSONL traces
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationResult:
    """Outcome of verifying a sealed artifact.

    ``first_divergent_index`` is the 0-based position of the first record
    whose stored index, body, or chain head diverges from the re-derived
    chain (``None`` when the artifact verifies clean or fails before any
    record, e.g. an empty file).
    """

    ok: bool
    events: int = 0
    head: str = ""
    error: Optional[str] = None
    first_divergent_index: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


def event_line(index: int, event_dict: Mapping[str, Any], chain: str) -> str:
    """Serialise one sealed-trace event line (canonical JSON)."""
    return canonical_json({"i": index, "event": dict(event_dict), "chain": chain})


def segment_seal_line(
    segment: int, first_index: int, count: int, head: str
) -> str:
    """Serialise one segment-seal line."""
    return canonical_json(
        {
            "seal": {
                "segment": segment,
                "first_index": first_index,
                "count": count,
                "head": head,
            }
        }
    )


def final_seal_line(events: int, head: str, extra: Optional[Mapping[str, Any]] = None) -> str:
    """Serialise the final seal line closing a trace."""
    seal: dict[str, Any] = {
        "final": True,
        "algorithm": ALGORITHM,
        "genesis": genesis_head(),
        "events": events,
        "head": head,
    }
    if extra:
        seal.update(extra)
    return canonical_json({"seal": seal})


def verify_sealed_jsonl(path: str | Path) -> VerificationResult:
    """Re-derive the hash chain of a sealed JSONL trace.

    Walks the file line by line, re-deriving the chain from the event
    *bodies* and comparing against each line's stored index and chain
    head, every segment seal, and the final seal.  The first divergence —
    a flipped byte, a missing event, a swapped pair, a malformed line or
    seal — is reported with its exact 0-based event index; malformed input
    is reported, never raised.
    """
    path = Path(path)
    chain = ChainState()
    expected_index = 0
    sealed = False

    def failed(error: str, index: Optional[int]) -> VerificationResult:
        return VerificationResult(
            ok=False,
            events=expected_index,
            head=chain.head,
            error=error,
            first_divergent_index=index,
        )

    try:
        # Binary, so a line that is not UTF-8 fails at its own index.
        handle = open(path, "rb")
    except OSError as error:
        return VerificationResult(ok=False, error=f"unreadable trace: {error}")
    with handle:
        for line_number, raw in enumerate(handle, start=1):
            raw = raw.strip()
            if not raw:
                continue
            # The last event folded in: where a disagreeing seal points.
            last = expected_index - 1 if expected_index else None
            if sealed:
                return failed(
                    f"line {line_number}: content after the final seal",
                    expected_index,
                )
            try:
                record = json.loads(raw)
            except (ValueError, RecursionError):  # not JSON, not UTF-8, too deep
                return failed(f"line {line_number}: not valid JSON", expected_index)
            if not isinstance(record, dict):
                return failed(
                    f"line {line_number}: not a JSON object", expected_index
                )
            if "seal" in record:
                seal = record["seal"]
                if not isinstance(seal, dict):
                    return failed(
                        f"line {line_number}: seal is not a JSON object",
                        expected_index,
                    )
                if seal.get("final"):
                    if seal.get("algorithm") != ALGORITHM:
                        return failed(
                            f"final seal algorithm {seal.get('algorithm')!r} "
                            f"!= {ALGORITHM!r}",
                            None,
                        )
                    count = seal.get("events")
                    if type(count) is not int:
                        return failed(
                            f"final seal event count {count!r} is not an integer",
                            expected_index,
                        )
                    if count != expected_index:
                        return failed(
                            f"final seal covers {count} events "
                            f"but the trace holds {expected_index}",
                            max(0, min(count, expected_index)),
                        )
                    if seal.get("head") != chain.head:
                        return failed(
                            "final seal head does not match the re-derived chain",
                            last,
                        )
                    sealed = True
                    continue
                if seal.get("head") != chain.head:
                    return failed(
                        f"segment {seal.get('segment')} seal head does not "
                        "match the re-derived chain",
                        last,
                    )
                continue
            stored_index = record.get("i")
            if type(stored_index) is not int or stored_index != expected_index:
                return failed(
                    f"line {line_number}: event index {stored_index} where "
                    f"{expected_index} was expected (missing or reordered event)",
                    expected_index,
                )
            try:
                derived = chain.update(record.get("event"))
            except (ValueError, RecursionError):
                return failed(
                    f"line {line_number}: event body is not canonical JSON",
                    expected_index,
                )
            if record.get("chain") != derived:
                return failed(
                    f"line {line_number}: chain head mismatch — event "
                    f"{expected_index} or an earlier record was tampered with",
                    expected_index,
                )
            expected_index += 1
    if not sealed:
        return failed(
            "trace is not sealed (no final seal line — truncated?)",
            expected_index - 1 if expected_index else None,
        )
    return VerificationResult(ok=True, events=expected_index, head=chain.head)


def read_sealed_events(path: str | Path) -> list[dict[str, Any]]:
    """Event bodies of a sealed JSONL trace, in order (seals skipped).

    Purely structural — run :func:`verify_sealed_jsonl` first when the
    chain must be trusted.
    """
    events: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            raw = raw.strip()
            if not raw:
                continue
            record = json.loads(raw)
            if "seal" not in record:
                events.append(record["event"])
    return events


# ----------------------------------------------------------------------
# Run-history audit records
# ----------------------------------------------------------------------

def history_audit_record(history: "RunHistory") -> dict[str, Any]:
    """Hash-chained audit record of a run history.

    Extends :meth:`~repro.training.metrics.RunHistory.digest` (one flat
    hash over everything) into a per-round chain: each round record is
    folded into a :class:`ChainState`, and the record carries every round
    body alongside its chain head, so verification localises tampering to
    the exact first divergent round.
    """
    chain = ChainState()
    rounds = []
    for record in history.records:
        body = dict(record.__dict__)
        rounds.append({"record": body, "chain": chain.update(body)})
    return {
        "algorithm": ALGORITHM,
        "method": history.method,
        "genesis": genesis_head(),
        "rounds": rounds,
        "head": chain.head,
        "digest": history.digest(),
    }


def verify_history_record(record: Mapping[str, Any]) -> VerificationResult:
    """Re-derive a :func:`history_audit_record` chain from its round bodies."""
    if record.get("algorithm") != ALGORITHM:
        return VerificationResult(
            ok=False, error=f"unknown algorithm {record.get('algorithm')!r}"
        )
    chain = ChainState()
    for index, entry in enumerate(record.get("rounds", ())):
        derived = chain.update(entry.get("record"))
        if entry.get("chain") != derived:
            return VerificationResult(
                ok=False,
                events=index,
                head=chain.head,
                error=f"round {index} diverges from the re-derived chain",
                first_divergent_index=index,
            )
    if record.get("head") != chain.head:
        return VerificationResult(
            ok=False,
            events=chain.index,
            head=chain.head,
            error="record head does not match the re-derived chain",
            first_divergent_index=chain.index - 1 if chain.index else None,
        )
    return VerificationResult(ok=True, events=chain.index, head=chain.head)


# ----------------------------------------------------------------------
# Campaign summaries
# ----------------------------------------------------------------------

def verify_campaign_summary(summary: Mapping[str, Any]) -> VerificationResult:
    """Re-derive the digest chain of a ``campaign_summary`` payload."""
    chain = ChainState()
    for position, row in enumerate(summary.get("per_cell", ())):
        derived = chain.update(row.get("payload_digest"))
        if row.get("chain") != derived:
            return VerificationResult(
                ok=False,
                events=position,
                head=chain.head,
                error=f"cell {position} diverges from the re-derived chain",
                first_divergent_index=position,
            )
    if summary.get("digest") != chain.head:
        return VerificationResult(
            ok=False,
            events=chain.index,
            head=chain.head,
            error="summary digest does not match the re-derived chain",
            first_divergent_index=chain.index - 1 if chain.index else None,
        )
    return VerificationResult(ok=True, events=chain.index, head=chain.head)
