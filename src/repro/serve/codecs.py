"""Request/response codecs for the serving daemon.

The HTTP surface speaks the same configuration language as every other
entry point: a JSON request body is folded into the public
:class:`repro.api.AnalyzeRequest` (unknown fields rejected, spellings
identical to the CLI flags), and a completed :class:`BatchEntry` row is
rendered through :class:`repro.core.report.ContractReport` — the *same*
builder ``repro analyze --json`` uses, so an ``/analyze`` response body
is the CLI report byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Tuple, Union

from repro.api import AnalyzeRequest
from repro.core.batch import BatchEntry
from repro.core.report import ContractReport

# JSON body fields accepted by /analyze (and per-contract in /batch),
# mapped onto AnalyzeRequest fields.  "bytecode" is hex text (an optional
# "0x" prefix is tolerated, as the CLI tolerates it in --hex files).
_REQUEST_FIELDS = frozenset(
    field.name for field in dataclasses.fields(AnalyzeRequest)
)


class BadRequest(ValueError):
    """A malformed request body (HTTP 400)."""


def decode_request(
    payload: Dict, defaults: AnalyzeRequest
) -> AnalyzeRequest:
    """Fold one JSON object into an :class:`AnalyzeRequest`.

    ``defaults`` carries the daemon's base configuration (the ``repro
    serve`` CLI flags); request fields override it.  Unknown fields are
    rejected loudly — a typo like ``"egnine"`` must not silently analyze
    under the wrong engine.
    """
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    unknown = sorted(set(payload) - _REQUEST_FIELDS)
    if unknown:
        raise BadRequest(
            "unknown request field(s): %s (accepted: %s)"
            % (", ".join(unknown), ", ".join(sorted(_REQUEST_FIELDS)))
        )
    overrides = dict(payload)
    if "bundle" in overrides and overrides["bundle"] is not None:
        from repro.core.linkage import bundle_from_specs

        try:
            # allow_files stays False: an HTTP request must not be able to
            # read files off the server's disk.
            overrides["bundle"] = bundle_from_specs(
                overrides["bundle"], allow_files=False
            )
        except ValueError as error:
            raise BadRequest("bad bundle: %s" % error) from None
    if "bytecode" in overrides:
        text = overrides["bytecode"]
        if not isinstance(text, str):
            raise BadRequest("bytecode must be a hex string")
        if text.startswith("0x"):
            text = text[2:]
        try:
            overrides["bytecode"] = bytes.fromhex(text.strip())
        except ValueError:
            raise BadRequest("bytecode is not valid hex") from None
    if "kinds" in overrides and overrides["kinds"] is not None:
        kinds = overrides["kinds"]
        if isinstance(kinds, str):
            kinds = [k.strip() for k in kinds.split(",") if k.strip()]
        if not isinstance(kinds, (list, tuple)) or not all(
            isinstance(k, str) for k in kinds
        ):
            raise BadRequest("kinds must be a list of kind names")
        overrides["kinds"] = tuple(kinds)
    try:
        return dataclasses.replace(defaults, **overrides)
    except (TypeError, ValueError) as error:
        # TypeError: a field name replace() does not take; ValueError:
        # AnalyzeRequest's own field type checks (RequestFieldError).
        raise BadRequest(str(error)) from None


def parse_body(body: bytes) -> Dict:
    """The request body as a JSON object, or :class:`BadRequest`."""
    try:
        payload = json.loads(body.decode("utf-8") or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise BadRequest("request body is not valid JSON: %s" % error) from None
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    return payload


def batch_requests(
    payload: Dict, defaults: AnalyzeRequest
) -> List[Union[AnalyzeRequest, BadRequest]]:
    """Decode a /batch body: ``{"contracts": [...], <shared overrides>}``.

    Top-level fields (minus ``contracts``) form the batch's shared
    defaults; each element of ``contracts`` overrides them per contract.
    A bad body or bad shared fields raise :class:`BadRequest`; an element
    that does not decode yields its :class:`BadRequest` in its place, so
    one bad contract is that contract's 400 and not the whole batch's.
    """
    if "contracts" not in payload:
        raise BadRequest('batch body needs a "contracts" list')
    contracts = payload["contracts"]
    if not isinstance(contracts, list) or not contracts:
        raise BadRequest('"contracts" must be a non-empty list')
    shared = {k: v for k, v in payload.items() if k != "contracts"}
    base = decode_request(shared, defaults) if shared else defaults
    requests: List[Union[AnalyzeRequest, BadRequest]] = []
    for entry in contracts:
        try:
            requests.append(decode_request(entry, base))
        except BadRequest as error:
            requests.append(error)
    return requests


def report_text(
    entry: BatchEntry, name: str, bytecode_size: int
) -> str:
    """The schema-v2 report for one completed entry — exactly what
    ``repro analyze --json`` prints (trailing newline included)."""
    return (
        ContractReport.from_entry(
            entry, name=name, bytecode_size=bytecode_size
        ).to_json()
        + "\n"
    )


def error_body(message: str, kind: str = "error") -> bytes:
    """A one-field JSON error payload for non-200 responses."""
    return (json.dumps({kind: message}) + "\n").encode("utf-8")
