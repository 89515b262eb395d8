"""The two bases of the package's record classes.

Each record writes out its own `__init__`.  `Record` gives value equality
over the fields a record names in `_key`, comparing arrays by value, and a
hash that agrees with it; a mutable record sets `__hash__ = None`.
`Frozen` makes a record immutable once `__init__` has set its fields
through `vars(self)`.  `functools.cached_property` still caches, since it
writes to the instance dict directly.
"""

import numpy as np


class Record:
    """Equal to a record of the same class whose `_key()` fields are equal;
    arrays compare by `np.array_equal`."""

    __slots__ = ()

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(a, b)
                   if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
                   else a == b for a, b in zip(self._key(), other._key()))

    def __hash__(self):
        # an array hashes by shape and values: -0.0 and 0.0, or 2 and 2.0,
        # are equal and hash alike
        return hash(tuple((v.shape, tuple(v.ravel().tolist()))
                          if isinstance(v, np.ndarray) else v
                          for v in self._key()))


class Frozen:
    """Assigning or deleting an attribute after `__init__` raises
    AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot "
                             f"assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot "
                             f"delete {name!r}")
