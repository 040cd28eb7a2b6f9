"""Shared plumbing of the command-line tools."""

from __future__ import annotations

from urllib.parse import parse_qsl

from repro.common.errors import ConfigError
from repro.storage.backend import StorageBackend
from repro.storage.memory import MemoryBackend
from repro.storage.sqlite import SqliteBackend


def open_backend(uri: str) -> StorageBackend:
    """Open a storage backend from a tool ``--db`` URI.

    ``sqlite:<path>`` opens (creating if needed) a file-backed store;
    ``memory:`` an empty in-process store (useful for piping csvimport
    straight into a query in tests); ``durable:<dir>`` the WAL-backed
    log-structured store (``docs/durability.md``), with optional query
    parameters, e.g. ``durable:/var/dcdb?fsync=always`` —

    ``fsync``
        WAL sync policy: ``always``, ``interval`` (default) or ``off``.
    ``fsync_interval_s``
        Sync period for the ``interval`` policy (float seconds).
    ``flush_threshold``
        Memtable rows before an automatic seal into a segment file.
    """
    scheme, _, rest = uri.partition(":")
    if scheme == "sqlite":
        if not rest:
            raise ConfigError("sqlite URI needs a path: sqlite:/path/to.db")
        return SqliteBackend(rest)
    if scheme == "memory":
        return MemoryBackend()
    if scheme == "durable":
        from repro.storage.durable import DurableNode

        path, _, query = rest.partition("?")
        if not path:
            raise ConfigError("durable URI needs a directory: durable:/path/to/data")
        options = dict(parse_qsl(query))
        kwargs: dict = {}
        try:
            if "fsync" in options:
                kwargs["fsync"] = options.pop("fsync")
            if "fsync_interval_s" in options:
                kwargs["fsync_interval_s"] = float(options.pop("fsync_interval_s"))
            if "flush_threshold" in options:
                kwargs["flush_threshold"] = int(options.pop("flush_threshold"))
        except ValueError as exc:
            raise ConfigError(f"bad durable URI option: {exc}") from None
        if options:
            raise ConfigError(
                f"unknown durable URI option(s): {', '.join(sorted(options))}"
            )
        try:
            return DurableNode("durable0", data_dir=path, **kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    raise ConfigError(
        f"unknown storage URI scheme {scheme!r} (use sqlite:, memory: or durable:)"
    )


def parse_time(text: str) -> int:
    """Parse a tool time argument into nanoseconds.

    Accepts raw integer nanoseconds, or a number suffixed with
    ``s``/``ms``/``us``/``ns``.
    """
    text = text.strip()
    for suffix, factor in (("ns", 1), ("us", 1_000), ("ms", 1_000_000), ("s", 1_000_000_000)):
        if text.endswith(suffix):
            try:
                return int(float(text[: -len(suffix)]) * factor)
            except ValueError:
                raise ConfigError(f"bad time value {text!r}") from None
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"bad time value {text!r}") from None
