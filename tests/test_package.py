"""The package's public surface: every exported name resolves."""

import gpratings


def test_every_public_name_resolves():
    missing = [name for name in gpratings.__all__ if not hasattr(gpratings, name)]
    assert missing == []
    assert len(set(gpratings.__all__)) == len(gpratings.__all__)


def test_star_import_runs():
    namespace = {}
    exec("from gpratings import *", namespace)
    assert set(gpratings.__all__) <= set(namespace)
