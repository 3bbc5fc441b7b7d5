"""Multi-label classification of Spanish legal judgements with decision-path
explanations: rule-based entity extraction, anonymisation, n-gram features,
binary/multi-class transformation strategies over tree ensembles, and
natural-language plus graph explanations.

Each input rule is stated once, here: `read_text` reads every file lexcat
is given, `parse_json` parses every JSON text in them, and `check_fields`
checks every settings dataclass."""

import dataclasses
import functools
import json
import types
import typing

__version__ = "0.1.0"


class DataError(ValueError):
    """Input lexcat refuses: a corpus, config, lexicon, model file or value
    it cannot use. Each module's error type subclasses it, and the command
    line exits 2 on it."""


def read_text(path, error: type[DataError], what: str) -> str:
    """The UTF-8 text of the file at path; a file that cannot be read or
    decoded raises error naming `what` kind of file it is."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"cannot read {what}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not UTF-8 text: {exc.reason}") from None


def parse_json(text: str, error: type[DataError], what: str):
    """text parsed as JSON; text that is not JSON, or that nests deeper than
    the parser can follow, raises error with `what` before the reason."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{what}: {exc}") from None


def has_type(value, hint) -> bool:
    """isinstance against a declared type, where an int is a float but a
    bool is neither an int nor a float."""
    if isinstance(hint, types.UnionType):
        return any(has_type(value, h) for h in typing.get_args(hint))
    if isinstance(value, bool) and hint is not bool:
        return False
    return isinstance(value, (int, float) if hint is float else hint)


_type_hints = functools.cache(typing.get_type_hints)


def check_fields(obj, error: type[DataError], rules, prefix: str = "") -> None:
    """Check a settings dataclass: each field against its annotation, then,
    once every type holds, rules(obj), a {field: (holds, what it must be)}
    map whose conditions are what must hold, so NaN fails them."""
    hints = _type_hints(type(obj))
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if not has_type(value, hints[f.name]):
            raise error(f"{prefix}{f.name!r} must be {f.type}, got {value!r}")
    for name, (holds, rule) in rules(obj).items():
        if not holds:
            raise error(f"{prefix}{name!r} must be {rule}, got {getattr(obj, name)!r}")
