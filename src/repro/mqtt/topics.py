"""MQTT topic names and filters.

DCDB assigns each sensor a unique MQTT topic whose levels mirror the
physical hierarchy of the facility (paper section 3.1), e.g.
``/hpc/rack02/chassis1/node7/cpu12/instructions``.  Topic patterns —
analytics operator inputs, sensor selections — use the standard MQTT
wildcards: ``+`` matches exactly one level and ``#`` matches the
remaining suffix.
"""

from __future__ import annotations

from repro.common.errors import TransportError


def split_topic(topic: str) -> list[str]:
    """Split a topic into hierarchy levels.

    MQTT treats a leading ``/`` as an empty first level; DCDB's topics
    conventionally start with ``/``, so ``/a/b`` splits into
    ``["", "a", "b"]`` — exactly per spec.
    """
    return topic.split("/")


def validate_topic(topic: str) -> None:
    """Validate a concrete (publishable) topic name.

    Raises :class:`TransportError` for empty names, embedded wildcards
    or NUL characters.
    """
    if not topic:
        raise TransportError("topic must not be empty")
    if len(topic.encode("utf-8")) > 0xFFFF:
        raise TransportError("topic exceeds 65535 bytes")
    if "#" in topic or "+" in topic:
        raise TransportError(f"wildcards not allowed in topic name {topic!r}")
    if "\x00" in topic:
        raise TransportError("NUL character not allowed in topic")


def validate_filter(pattern: str) -> None:
    """Validate a topic filter (a pattern that may hold wildcards).

    Enforces the MQTT 3.1.1 wildcard placement rules: ``+`` must occupy
    an entire level; ``#`` must occupy the final level only.
    """
    if not pattern:
        raise TransportError("topic filter must not be empty")
    if "\x00" in pattern:
        raise TransportError("NUL character not allowed in topic filter")
    levels = split_topic(pattern)
    for i, level in enumerate(levels):
        if "#" in level:
            if level != "#":
                raise TransportError(f"'#' must occupy a whole level in {pattern!r}")
            if i != len(levels) - 1:
                raise TransportError(f"'#' must be the last level in {pattern!r}")
        if "+" in level and level != "+":
            raise TransportError(f"'+' must occupy a whole level in {pattern!r}")


def topic_matches(pattern: str, topic: str) -> bool:
    """True if concrete ``topic`` matches the filter ``pattern``.

    Implements the MQTT 3.1.1 matching rules including the corner case
    that ``a/#`` matches ``a`` itself (the parent of a ``#`` level).
    Topics beginning with ``$`` are only matched by filters that also
    spell out the ``$`` level (no wildcard match on the first level),
    per the spec's treatment of system topics.
    """
    p_levels = split_topic(pattern)
    t_levels = split_topic(topic)
    if topic.startswith("$") and p_levels and p_levels[0] in ("+", "#"):
        return False
    i = 0
    while i < len(p_levels):
        p = p_levels[i]
        if p == "#":
            return True
        if i >= len(t_levels):
            return False
        if p != "+" and p != t_levels[i]:
            return False
        i += 1
    if i == len(t_levels):
        return True
    # Pattern exhausted with topic levels left: only "a/#" style covers
    # it, handled above; anything else fails.
    return False
