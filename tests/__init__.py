"""The test suite as one package, so pytest loads conftest.py once, as
tests.conftest, the module the tests import their doubles and helpers from."""
