import gravqm


def test_all_names_resolve_once():
    assert len(gravqm.__all__) == len(set(gravqm.__all__))
    for name in gravqm.__all__:
        assert hasattr(gravqm, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from gravqm import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(gravqm.__all__)
