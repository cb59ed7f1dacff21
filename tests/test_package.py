import types

import qdmsim as q


def test_star_import_binds_exactly_all():
    assert len(set(q.__all__)) == len(q.__all__)
    for name in q.__all__:
        assert not isinstance(getattr(q, name), types.ModuleType), name
    namespace = {}
    exec("from qdmsim import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(q.__all__)
