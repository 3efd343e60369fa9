import tapprox


def test_all_names_resolve_once_and_star_import_works():
    names = tapprox.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(tapprox, n)] == []
    namespace: dict = {}
    exec("from tapprox import *", namespace)
    assert set(names) <= namespace.keys()
