"""Tests for the plugin skeleton generator."""

import os
import subprocess
import sys

import pytest

from repro.core.pusher.generator import generate, main


class TestGenerate:
    def test_writes_three_files(self, tmp_path):
        written = generate("mydevice", str(tmp_path))
        names = {os.path.basename(p) for p in written}
        assert names == {"mydevice.py", "mydevice.conf", "test_mydevice.py"}

    def test_refuses_overwrite(self, tmp_path):
        generate("mydevice", str(tmp_path))
        with pytest.raises(FileExistsError):
            generate("mydevice", str(tmp_path))

    def test_invalid_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generate("My-Device", str(tmp_path))
        with pytest.raises(ValueError):
            generate("7name", str(tmp_path))

    def test_generated_plugin_is_importable_and_registers(self, tmp_path):
        generate("skeldev", str(tmp_path))
        sys.path.insert(0, str(tmp_path))
        try:
            import importlib

            importlib.import_module("skeldev")
            from repro.core.pusher.registry import create_configurator

            configurator = create_configurator("skeldev")
            plugin = configurator.read_config(
                "group g0 { interval 1000\n sensor s0 { } }"
            )
            assert plugin.sensor_count == 1
            # The skeleton's read_raw raises PluginError until filled
            # in; the framework must swallow it and count the failure.
            group = plugin.groups[0]
            assert group.read(1) is None
            assert group.read_errors == 1
        finally:
            sys.path.remove(str(tmp_path))
            sys.modules.pop("skeldev", None)

    def test_generated_config_parses(self, tmp_path):
        generate("confdev", str(tmp_path))
        from repro.common.proptree import parse_info

        with open(tmp_path / "confdev.conf", encoding="utf-8") as handle:
            tree = parse_info(handle.read())
        assert tree.child("group") is not None

    def test_cli_main(self, tmp_path, capsys):
        rc = main(["clidev", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "clidev.py" in out

    def test_cli_error_path(self, tmp_path, capsys):
        rc = main(["Bad-Name", str(tmp_path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err
