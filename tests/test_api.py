import types

import eventspec


def test_all_lists_every_public_name():
    public = {name for name, value in vars(eventspec).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(eventspec.__all__) == len(set(eventspec.__all__))
    assert set(eventspec.__all__) == public
