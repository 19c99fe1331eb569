"""Package surface: every exported name resolves, so an export left behind
by a deletion fails the suite instead of `from gblink import *`."""

import gblink


def test_all_names_resolve():
    assert [name for name in gblink.__all__ if not hasattr(gblink, name)] == []
    assert len(set(gblink.__all__)) == len(gblink.__all__)
