"""Tests for topic validation and filter matching."""

import pytest

from repro.common.errors import TransportError
from repro.mqtt.topics import topic_matches, validate_filter, validate_topic


class TestValidateTopic:
    def test_plain_topic_ok(self):
        validate_topic("/hpc/rack0/node1/power")

    def test_empty_rejected(self):
        with pytest.raises(TransportError):
            validate_topic("")

    @pytest.mark.parametrize("bad", ["/a/#", "/a/+/b", "a#b", "+"])
    def test_wildcards_rejected(self, bad):
        with pytest.raises(TransportError):
            validate_topic(bad)

    def test_nul_rejected(self):
        with pytest.raises(TransportError):
            validate_topic("/a\x00b")


class TestValidateFilter:
    @pytest.mark.parametrize("ok", ["#", "/a/#", "+", "/+/b", "/a/+/+/#", "/plain"])
    def test_valid_filters(self, ok):
        validate_filter(ok)

    @pytest.mark.parametrize("bad", ["/a/#/b", "/a#", "/a/b+", "+a", "", "/#extra"])
    def test_invalid_filters(self, bad):
        with pytest.raises(TransportError):
            validate_filter(bad)


class TestTopicMatches:
    @pytest.mark.parametrize(
        "pattern,topic,expected",
        [
            ("/a/b/c", "/a/b/c", True),
            ("/a/b/c", "/a/b/d", False),
            ("/a/+/c", "/a/b/c", True),
            ("/a/+/c", "/a/b/d", False),
            ("/a/+/c", "/a/b/x/c", False),
            ("/a/#", "/a/b/c", True),
            ("/a/#", "/a", True),  # '#' matches the parent level too
            ("#", "/anything/at/all", True),
            ("+/+", "/a", True),  # leading slash = empty first level
            ("/+", "/a", True),
            ("+", "/a", False),
            ("/a/b", "/a/b/c", False),
            ("/a/b/c", "/a/b", False),
            ("sport/+", "sport", False),
            ("sport/#", "sport", True),
        ],
    )
    def test_matching_rules(self, pattern, topic, expected):
        assert topic_matches(pattern, topic) is expected

    def test_system_topics_not_matched_by_wildcards(self):
        assert not topic_matches("#", "$SYS/broker/load")
        assert not topic_matches("+/broker/load", "$SYS/broker/load")
        assert topic_matches("$SYS/#", "$SYS/broker/load")
