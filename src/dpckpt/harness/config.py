"""Plain-text experiment configuration.

Files hold one `key = value` assignment per line, UTF-8, with `#`
starting a comment (whole-line or trailing). Keys are dotted lowercase
names. Each task declares its keys as one tuple of `Key`s, and
`read_keys` reads and checks them all before any compute. Every key in
the file must be in that tuple: a leftover key is a config error naming
the key, which catches both typos and options that do not apply to the
chosen task.
"""

from dataclasses import dataclass
from typing import Callable

from ..errors import ConfigError

_MISSING = object()

_TRUE_WORDS = frozenset(("true", "yes", "on", "1"))
_FALSE_WORDS = frozenset(("false", "no", "off", "0"))


def parse_config_text(text: str) -> dict[str, str]:
    """Parse config text to an ordered key -> raw string value map."""
    values: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in values:
            raise ConfigError("assigned more than once", key=key)
        values[key] = value
    return values


def load_config(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _split(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}", key=key) from None


def _parse_float(key: str, text: str) -> float:
    try:
        return float(text)  # takes "inf" and "nan" in any case
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}", key=key) from None


def _parse_bool(key: str, text: str) -> bool:
    word = text.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ConfigError(f"expected a boolean, got {text!r}", key=key)


def _parse_pairs(key: str, text: str) -> list[tuple[float, float]]:
    pairs = []
    for part in _split(text):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise ConfigError(f"expected 'a:b' pairs, got {part!r}", key=key)
        pairs.append((_parse_float(key, pieces[0]), _parse_float(key, pieces[1])))
    return pairs


class ConfigView:
    """Typed access to parsed config values with used-key tracking.

    A getter returns the default unparsed when the key is unset; a value
    that does not parse is a config error naming the key.
    """

    def __init__(self, values: dict[str, str]):
        self._values = dict(values)
        self._used: set[str] = set()

    def raw(self, key: str, default=_MISSING):
        """The unparsed value of key, without marking it read: for choosing
        which key table reads the config."""
        if key in self._values:
            return self._values[key]
        if default is _MISSING:
            raise ConfigError("required key is missing", key=key)
        return default

    def _get(self, key: str, default, parse):
        self._used.add(key)
        value = self.raw(key, default)
        return parse(key, value) if isinstance(value, str) else value

    def has(self, key: str) -> bool:
        return key in self._values

    def get_str(self, key: str, default=_MISSING) -> str:
        return self._get(key, default, lambda key, text: text)

    def get_int(self, key: str, default=_MISSING) -> int:
        return self._get(key, default, _parse_int)

    def get_float(self, key: str, default=_MISSING) -> float:
        return self._get(key, default, _parse_float)

    def get_bool(self, key: str, default=_MISSING) -> bool:
        return self._get(key, default, _parse_bool)

    def get_str_list(self, key: str, default=_MISSING) -> list[str]:
        return self._get(key, default, lambda key, text: _split(text))

    def get_int_list(self, key: str, default=_MISSING) -> list[int]:
        return self._get(
            key, default, lambda key, text: [_parse_int(key, p) for p in _split(text)]
        )

    def get_float_list(self, key: str, default=_MISSING) -> list[float]:
        return self._get(
            key, default, lambda key, text: [_parse_float(key, p) for p in _split(text)]
        )

    def get_float_pairs(self, key: str, default=_MISSING) -> list[tuple[float, float]]:
        """Comma-separated colon pairs, e.g. "20:20, 0.01:0.01"."""
        return self._get(key, default, _parse_pairs)

    def unused_keys(self) -> list[str]:
        return sorted(set(self._values) - self._used)

    def ensure_all_used(self) -> None:
        leftover = self.unused_keys()
        if leftover:
            raise ConfigError("unknown key for this task", key=leftover[0])


@dataclass(frozen=True)
class Key:
    """One config key of a task: kind names its ConfigView getter ("int"
    reads through get_int). A value the config sets must pass check, else
    the key is rejected with rule, and no key in excludes may be set too."""

    name: str
    kind: str
    default: object
    check: Callable[[object], bool] | None = None
    rule: str = ""
    excludes: tuple[str, ...] = ()


def read_keys(view: ConfigView, keys: tuple[Key, ...]) -> dict:
    """Every value of a task's key table, by key name, parsed and checked in
    table order; then a key the table does not list is a config error."""
    values = {}
    for key in keys:
        value = getattr(view, "get_" + key.kind)(key.name, key.default)
        if view.has(key.name):
            if key.check is not None and not key.check(value):
                raise ConfigError(key.rule, key=key.name)
            for other in key.excludes:
                if view.has(other):
                    raise ConfigError(f"set only one of '{key.name}' and '{other}'", key=key.name)
        values[key.name] = value
    view.ensure_all_used()
    return values
