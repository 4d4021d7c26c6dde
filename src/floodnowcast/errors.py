"""Exception types shared across the package.

Two failure families are distinguished so the CLI can map them to stable
exit codes: caller mistakes (bad arguments, mismatched shapes, malformed
config) raise :class:`UsageError`; bad numbers in otherwise well-formed
calls (NaN/Inf, out-of-range values, divergence) raise :class:`DomainError`.
:func:`config_from` is the one way a JSON object becomes a config dataclass,
and :func:`check_field_types` the one type check of those dataclasses, whose
values may come from any JSON; :func:`parse_header` is the one check
of JSON headers, sidecars and config files; :func:`convert_rows` turns a CSV
row that does not convert into a :class:`UsageError` naming its line.

The containers ``dataset.bin``, ``graph.bin`` and ``weights.bin`` are sealed
here and nowhere else: :func:`seal` adds ``sha256`` (the payload's digest)
and ``header_sha256`` (that of every other entry, as canonical JSON).
:func:`read_sealed` checks the format, the version, the caller's spec (exit
2) and then the header digest (exit 4); :func:`check_payload` the payload's
length (exit 2) and then its digest (exit 4).
"""

import dataclasses
import hashlib
import json


class UsageError(ValueError):
    """The call itself is wrong: bad argument, shape mismatch, bad config."""


class DomainError(ValueError):
    """The values are wrong: non-finite data, out-of-range inputs, divergence."""


class TrainingDiverged(DomainError):
    """Loss became non-finite during training."""

    def __init__(self, epoch: int, message: str = ""):
        self.epoch = epoch
        super().__init__(message or f"training diverged at epoch {epoch}")


def is_int(value) -> bool:
    """An int that is not a bool (JSON ``true`` loads as a bool, an int subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return is_int(value) or isinstance(value, float)


def _sequence_of(kind, accepts):
    return lambda v: isinstance(v, kind) and all(map(accepts, v))


# annotation (as a string, under ``from __future__ import annotations``) or
# JSON header type -> (accepts a value, what it expects)
_FIELD_TYPES = {
    "int": (is_int, "an integer"),
    "float": (_is_number, "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[int, ...]": (_sequence_of(tuple, is_int), "a list of integers"),
    "tuple[float, ...]": (_sequence_of(tuple, _is_number), "a list of numbers"),
    "list[int]": (_sequence_of(list, is_int), "a list of integers"),
    "list[str]": (_sequence_of(list, lambda v: isinstance(v, str)), "a list of strings"),
    "list[float]": (_sequence_of(list, _is_number), "a list of numbers"),
}


def check_field_types(config) -> None:
    """Raise :class:`UsageError` for the first field of a config dataclass
    whose value does not have its annotated type."""
    for f in dataclasses.fields(config):
        accepts, expected = _FIELD_TYPES[f.type]
        value = getattr(config, f.name)
        if not accepts(value):
            # quote a tuple field's value as the JSON list it came from
            shown = list(value) if isinstance(value, tuple) else value
            raise UsageError(f"{f.name} must be {expected}, got {shown!r}")


def config_from(cls, value: dict, source, **fixed):
    """The config dataclass ``cls`` built from a parsed JSON object and the
    ``fixed`` fields the caller supplies.

    A key of ``value`` that is not a field of ``cls``, or that the caller
    fixes, raises :class:`UsageError` naming ``source`` and the key; a list
    becomes a tuple for a tuple field. ``cls.__post_init__`` does every type
    and range check, and its :class:`UsageError` gains ``source`` as a prefix.
    """
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    for key in value:
        if key not in types or key in fixed:
            raise UsageError(f"{source} takes no {key!r} key; its keys are "
                             f"{sorted(set(types) - set(fixed))}")
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) and types[k].startswith("tuple")
                      else v for k, v in value.items()}, **fixed)
    except UsageError as exc:
        raise UsageError(f"{source}: {exc}") from exc


def check_header(value, spec, source, key: str = "") -> None:
    """Raise :class:`UsageError` naming ``source`` and the key unless the
    parsed ``value`` matches ``spec`` (see :func:`parse_header`)."""
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise UsageError(f"{source}{': ' + key if key else ''} must hold a JSON "
                             f"object, got {type(value).__name__}")
        for name, inner in spec.items():
            path = f"{key}.{name}" if key else name
            if name not in value:
                raise UsageError(f"{source} has no {path!r} entry")
            check_header(value[name], inner, source, path)
    elif isinstance(spec, list):
        if not isinstance(value, list):
            raise UsageError(f"{source}: {key} must be a JSON list, got {type(value).__name__}")
        for i, item in enumerate(value):
            check_header(item, spec[0], source, f"{key}[{i}]")
    else:
        accepts, expected = _FIELD_TYPES[spec]
        if not accepts(value):
            raise UsageError(f"{source}: {key} must be {expected}, got {value!r:.80}")


def parse_header(raw: bytes, spec: dict, source) -> dict:
    """Parse a container's JSON header (or sidecar) and check it against ``spec``.

    ``spec`` maps every required key to a type name of ``_FIELD_TYPES``, to
    a nested spec (a JSON object) or to a one-item list holding the spec of
    each element (a JSON list of objects). Bytes that are not UTF-8 JSON, a
    value that is not an object, a missing key or a value of the wrong type
    raise :class:`UsageError` naming ``source`` and the key.
    """
    try:
        header = json.loads(raw.decode())
    except ValueError as exc:     # JSONDecodeError and UnicodeDecodeError
        raise UsageError(f"{source} is not valid JSON: {exc}") from exc
    check_header(header, spec, source)
    return header


def convert_rows(rows, convert, source) -> list:
    """``[convert(row) for row in rows]`` for CSV rows after a header line.

    A short row (``csv.DictReader`` fills its missing fields with ``None``)
    and a ``ValueError`` or ``TypeError`` raised while converting a row (a
    non-numeric field) become a :class:`UsageError` naming ``source`` and the
    row's line; the :class:`UsageError` or :class:`DomainError` of a row's
    own checks gains the same prefix and keeps its class.
    """
    out = []
    for line, row in enumerate(rows, start=2):
        if None in row.values():
            raise UsageError(f"{source} line {line}: too few fields")
        try:
            out.append(convert(row))
        except (ValueError, TypeError) as exc:
            kind = type(exc) if isinstance(exc, (UsageError, DomainError)) else UsageError
            raise kind(f"{source} line {line}: {exc}") from exc
    return out


# -- sealed containers ----------------------------------------------------------


def header_sha256(header: dict) -> str:
    """sha256 of a header's entries other than ``header_sha256``, as canonical JSON."""
    rest = {k: v for k, v in header.items() if k != "header_sha256"}
    return hashlib.sha256(json.dumps(rest, sort_keys=True).encode()).hexdigest()


def seal(header: dict, payload: bytes) -> dict:
    """``header`` plus ``sha256`` (the payload's digest) and ``header_sha256``."""
    sealed = {**header, "sha256": hashlib.sha256(payload).hexdigest()}
    sealed["header_sha256"] = header_sha256(sealed)
    return sealed


def write_sealed(path, header: dict, payload: bytes) -> None:
    """Write the sealed ``header`` as one JSON line, then ``payload``."""
    with open(path, "wb") as fh:
        fh.write(json.dumps(seal(header, payload), sort_keys=True).encode() + b"\n")
        fh.write(payload)


def check_version(version: int, expected: int, source, command: str) -> None:
    """The one version rule: any version but ``expected`` exits 2."""
    if version != expected:
        raise UsageError(f"{source} is a version-{version} file and floodnowcast reads "
                         f"version {expected}: re-run `{command}` to rewrite it")


def check_sealed(header: dict, spec: dict, source) -> dict:
    """``header``, checked against ``spec`` (see :func:`parse_header`), then its digest."""
    check_header(header, {**spec, "sha256": "str", "header_sha256": "str"}, source)
    if header_sha256(header) != header["header_sha256"]:
        raise DomainError(f"header checksum mismatch in {source}: it was damaged or edited")
    return header


def read_sealed(path, fmt: str, version: int, spec: dict, command: str
                ) -> tuple[dict, bytes]:
    """The checked header and the unchecked payload of a file ``command`` wrote."""
    with open(path, "rb") as fh:
        header = parse_header(fh.readline(), {"format": "str", "version": "int"}, path)
        payload = fh.read()
    if header["format"] != fmt:
        raise UsageError(f"{path} is not a {fmt} file")
    check_version(header["version"], version, path, command)
    return check_sealed(header, spec, path), payload


def check_payload(payload: bytes, size: int, header: dict, source) -> None:
    """Raise unless ``payload`` is ``size`` bytes long (:class:`UsageError`) and
    matches its sealed header's ``sha256`` (:class:`DomainError`)."""
    if len(payload) != size:
        raise UsageError(f"{source} payload is {len(payload)} bytes; its header needs {size}")
    if hashlib.sha256(payload).hexdigest() != header["sha256"]:
        raise DomainError(f"payload checksum mismatch in {source}: it was damaged or edited")
