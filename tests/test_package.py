import types

import couplex


def test_all_names_exactly_the_public_surface():
    # a name left in __all__ after its function is deleted breaks
    # ``from couplex import *``; a public name missing from it is unlisted
    for name in couplex.__all__:
        assert hasattr(couplex, name), name
    bound = {
        name
        for name, value in vars(couplex).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(couplex.__all__) == sorted(bound)
    assert len(set(couplex.__all__)) == len(couplex.__all__)
    namespace = {}
    exec("from couplex import *", namespace)
    assert set(couplex.__all__) <= set(namespace)
