"""The immutable-value base class of the package's objects.

A subclass lists its fields in ``__slots__`` and stores each one once:
every field in ``__init__`` by ``_set``, or one lazy memo by ``_memo``;
setting or deleting any name afterwards raises AttributeError.  Values
compare by identity unless the subclass defines ``__eq__`` and ``__hash__``.

Each class gets its own ``_set`` when it is created, taking exactly its own
``__slots__`` positionally, in order, and storing them through the slots'
descriptors, past the ``__setattr__`` that forbids it.  The one-, two- and
three-field setters, those of the most-built values (points, lines,
couples, involutions, line charts, homographies, framed values, drawables,
scene tokens), store each field directly; a longer one loops over the
descriptors.  A wrong number of fields raises TypeError.
"""


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._set = _setter(cls)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def _memo(self, name, value):
        """Store ``value`` in the slot ``name``, a lazy memo left empty or None by ``__init__``."""
        object.__setattr__(self, name, value)


def _setter(cls):
    """The ``_set`` of ``cls``: store one value per own slot, in ``__slots__`` order."""
    stores = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
    if len(stores) == 1:
        (store,) = stores

        def _set(self, value):
            store(self, value)

    elif len(stores) == 2:
        store0, store1 = stores

        def _set(self, value0, value1):
            store0(self, value0)
            store1(self, value1)

    elif len(stores) == 3:
        store0, store1, store2 = stores

        def _set(self, value0, value1, value2):
            store0(self, value0)
            store1(self, value1)
            store2(self, value2)

    else:

        def _set(self, *values):
            if len(values) != len(stores):
                raise TypeError(f"{cls.__name__}._set takes {len(stores)} fields, got {len(values)}")
            for store, value in zip(stores, values):
                store(self, value)

    return _set
