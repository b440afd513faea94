"""The package's export list names exactly what it binds."""

import eqmeas


def test_every_exported_name_is_bound():
    assert [name for name in eqmeas.__all__ if not hasattr(eqmeas, name)] == []


def test_no_duplicate_exports():
    assert len(eqmeas.__all__) == len(set(eqmeas.__all__))


def test_star_import():
    namespace = {}
    exec("from eqmeas import *", namespace)
    assert set(eqmeas.__all__) <= set(namespace)
