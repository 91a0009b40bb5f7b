"""The shared test doubles and helpers live in one module."""

from pathlib import Path

import tests.conftest


def test_pytest_loads_the_conftest_that_the_tests_import(request):
    """pytest registers conftest.py as a plugin. That plugin is the module the
    tests import as tests.conftest, so a fixture there patches and resets the
    same SerialPool class as the tests that use it."""
    here = Path(tests.conftest.__file__).resolve()
    loaded = [plugin for plugin in request.config.pluginmanager.get_plugins()
              if getattr(plugin, "__file__", None) and Path(plugin.__file__).resolve() == here]
    assert loaded == [tests.conftest]
